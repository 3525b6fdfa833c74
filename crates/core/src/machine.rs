//! The §3 exchange as a pair of sans-I/O session machines: events in,
//! actions out, zero I/O, zero internal time.
//!
//! The receiver drives the exchange:
//!
//! 1. **R → S**: min-wise sketch (the calling card).
//! 2. **S → R**: the sender's sketch in return.
//! 3. Receiver applies [`crate::policy::plan_transfer`]:
//!    * *Reject* — the receiver sends `End` and the session ends
//!      (admission control; no bandwidth spent beyond two sketches).
//!    * *Reconciled* — the receiver builds the chosen summary through
//!      its [`SummaryRegistry`] and sends it in the generic tagged
//!      frame, plus a `SymbolRequest{count}`. Any registered mechanism —
//!      whole-set, hash-set, char-poly, bloom, art, or an out-of-tree
//!      one — takes this path; the machines never name a mechanism.
//!    * *Speculative* — the receiver sends only `SymbolRequest{count}`.
//! 4. **S → R**: up to `count` data frames — encoded symbols the decoded
//!    summary's [`Reconciler`](crate::summary::Reconciler) cleared
//!    (reconciled), or recoded symbols with min-wise-scaled degrees
//!    (speculative) — then `End`.
//!
//! A machine consumes [`SessionEvent`]s (`PeerConnected`,
//! `FrameReceived`, `TickElapsed`) and emits [`SessionAction`]s
//! (`SendFrame`, `SymbolDecoded`, `Completed`, ...). Every `SendFrame`
//! carries the *exact* bytes `icd-wire`'s `write_frame_buf` produces —
//! length prefix included — so whatever the driver sums is by
//! construction the true wire cost.
//!
//! Time never originates inside a machine: the driver's clock arrives
//! via [`SessionEvent::TickElapsed`], and the optional idle timeout is
//! judged purely against those driver-provided ticks. The same machine
//! therefore runs unchanged under every driver in this workspace:
//! * `icd-overlay`'s session links pump one frame per link send slot,
//!   applying rate/latency/loss to real framed byte lengths;
//! * [`drive_receiver`]/[`drive_sender`] run the machines over any
//!   blocking `Read + Write` stream (`icd-node`, the `tcp_reconcile`
//!   example), with one batched write per machine step and one buffered
//!   frame reader per session;
//! * [`FramePump`] interleaves two machines over in-memory queues, one
//!   frame per direction per step (tests, the quickstart example, the
//!   summary sweeps).

use std::sync::Arc;

use bytes::Bytes;
use icd_fountain::{EncodedSymbol, RecodeBuffer, RecodePolicy, Recoder};
use icd_sketch::MinwiseSketch;
use icd_util::rng::{Rng64 as _, Xoshiro256StarStar};
use icd_wire::framing::{write_frame_buf, FrameError, FrameLimit, FrameReader};
use icd_wire::message::FRAME_PREFIX_BYTES;
use icd_wire::{Message, WireError};

use crate::policy::{plan_transfer, PolicyKnobs, TransferPlan};
use crate::summary::{
    diff_estimate, standard_registry_arc, SummaryError, SummaryId, SummaryRegistry, SummarySizing,
};
use crate::working_set::WorkingSet;

/// The most symbols a sender streams in answer to one `SymbolRequest`.
/// The count is peer-supplied and the sans-I/O sender materialises its
/// whole answer before the driver writes a byte, so an unbounded count
/// would let one hostile request exhaust memory. The largest request in
/// this workspace is the speculative end-to-end test's `3·l` (300
/// symbols), and daemon and `predict` requests never exceed the spec
/// universe (hundreds of symbols); 2^20 sits more than three orders of
/// magnitude above both.
pub(crate) const MAX_SYMBOL_REQUEST: u64 = 1 << 20;

/// Session-level configuration (receiver side), built with the
/// `with_*` methods:
///
/// ```
/// use icd_core::{SessionConfig, summary::SummaryId};
/// let config = SessionConfig::new()
///     .with_request(256)
///     .with_summary(SummaryId::CHAR_POLY);
/// ```
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Symbols to request (§6.1: chosen "with appropriate allowances for
    /// decoding overhead"). Senders refuse counts above 2^20.
    pub request: u64,
    /// Policy knobs for plan selection.
    pub knobs: PolicyKnobs,
    /// Summary sizing shared by every registered mechanism.
    pub sizing: SummarySizing,
    /// When set, skip policy scoring and ship exactly this summary —
    /// how experiment sweeps pin each mechanism in turn.
    pub summary_override: Option<SummaryId>,
    /// RNG seed (recoding draws on the sender side use the peer's seed).
    pub seed: u64,
    /// The mechanism registry both construction and scoring consult.
    pub registry: Arc<SummaryRegistry>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            request: 128,
            knobs: PolicyKnobs::default(),
            sizing: SummarySizing::default(),
            summary_override: None,
            seed: 0x5E55_1014,
            registry: standard_registry_arc(),
        }
    }
}

impl SessionConfig {
    /// Starts a builder chain from the defaults.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of symbols to request.
    #[must_use]
    pub fn with_request(mut self, request: u64) -> Self {
        self.request = request;
        self
    }

    /// Sets the policy knobs.
    #[must_use]
    pub fn with_knobs(mut self, knobs: PolicyKnobs) -> Self {
        self.knobs = knobs;
        self
    }

    /// Sets the summary sizing.
    #[must_use]
    pub fn with_sizing(mut self, sizing: SummarySizing) -> Self {
        self.sizing = sizing;
        self
    }

    /// Forces a specific summary mechanism instead of policy scoring.
    /// §4 admission control still applies: a peer with nothing useful is
    /// rejected before the pinned digest is built.
    #[must_use]
    pub fn with_summary(mut self, id: SummaryId) -> Self {
        self.summary_override = Some(id);
        self
    }

    /// Sets the session seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the summary registry (e.g. one with a private mechanism
    /// registered).
    #[must_use]
    pub fn with_registry(mut self, registry: Arc<SummaryRegistry>) -> Self {
        self.registry = registry;
        self
    }
}

/// Session failures: protocol violations, not I/O (the transport layer
/// owns those).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// A message arrived that the current state cannot accept.
    UnexpectedMessage {
        /// The state the machine was in.
        state: &'static str,
        /// The offending frame's message tag.
        tag: u8,
    },
    /// The peer's sketch uses a different permutation family.
    FamilyMismatch,
    /// A summary frame named a mechanism absent from this side's
    /// registry.
    UnknownSummary {
        /// The raw id the frame carried.
        id: u16,
    },
    /// A summary body failed its mechanism's decoder.
    MalformedSummary(&'static str),
    /// A `SymbolRequest` asked for more symbols than a sender streams in
    /// one answer (2^20).
    RequestTooLarge {
        /// The requested count.
        count: u64,
    },
}

impl From<SummaryError> for SessionError {
    fn from(err: SummaryError) -> Self {
        match err {
            SummaryError::Unknown(id) => Self::UnknownSummary { id: id.0 },
            SummaryError::Malformed(why) => Self::MalformedSummary(why),
            SummaryError::DuplicateId(_) => Self::MalformedSummary("duplicate summary id"),
        }
    }
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnexpectedMessage { state, tag } => {
                write!(f, "unexpected message tag {tag:#04x} in state {state}")
            }
            Self::FamilyMismatch => write!(f, "peer sketch from a different permutation family"),
            Self::UnknownSummary { id } => write!(f, "summary id {id} not in registry"),
            Self::MalformedSummary(why) => write!(f, "summary body rejected: {why}"),
            Self::RequestTooLarge { count } => write!(
                f,
                "symbol request for {count} exceeds the {MAX_SYMBOL_REQUEST}-symbol cap"
            ),
        }
    }
}

impl std::error::Error for SessionError {}

/// An input to a session machine. Drivers translate their world —
/// sockets, simulated links, test queues — into these three events.
#[derive(Debug, Clone)]
pub enum SessionEvent {
    /// The transport to the peer is up; the machine may start talking.
    PeerConnected,
    /// One complete frame arrived: u32 length prefix plus encoded body,
    /// exactly as read off the wire.
    FrameReceived(Bytes),
    /// The driver's clock advanced to `now` (any monotonic unit — the
    /// machine only compares differences against its idle timeout).
    TickElapsed(u64),
}

/// An output from a session machine. The driver executes these; the
/// machine never performs I/O itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionAction {
    /// Transmit these bytes to the peer verbatim. The buffer is a whole
    /// frame (prefix + body), so `frame.len()` *is* the wire cost.
    SendFrame(Bytes),
    /// A new distinct symbol with this id entered the working set.
    SymbolDecoded(u64),
    /// The session finished normally. For a receiver, `gained` is the
    /// count of new distinct symbols; for a sender, the symbols it
    /// streamed (the `End` frame's count).
    Completed {
        /// Symbols gained (receiver) or streamed (sender).
        gained: u64,
    },
    /// Admission control ended the session before any transfer.
    Rejected,
    /// The idle timeout elapsed with the session unfinished.
    TimedOut,
}

/// Failures surfaced by a machine: malformed frames, wire decode
/// errors, or protocol violations.
#[derive(Debug)]
pub enum MachineError {
    /// The driver handed over bytes that are not one whole well-formed
    /// frame, or misused the event API (e.g. a frame before
    /// `PeerConnected`).
    Frame(&'static str),
    /// The frame body failed to decode.
    Wire(WireError),
    /// The frame was well formed but broke the protocol.
    Session(SessionError),
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Frame(why) => write!(f, "bad frame: {why}"),
            Self::Wire(e) => write!(f, "wire decode failed: {e}"),
            Self::Session(e) => write!(f, "session error: {e}"),
        }
    }
}

impl std::error::Error for MachineError {}

impl From<SessionError> for MachineError {
    fn from(e: SessionError) -> Self {
        Self::Session(e)
    }
}

/// Splits a raw frame into its message tag and message, validating that
/// the buffer is exactly one frame whose prefix agrees with its length.
/// The body decodes as a view of the buffer (no copy for data-plane
/// payloads).
fn decode_frame(frame: &Bytes) -> Result<(u8, Message), MachineError> {
    if frame.len() < FRAME_PREFIX_BYTES {
        return Err(MachineError::Frame("frame shorter than its length prefix"));
    }
    let declared = u32::from_le_bytes(
        frame[..FRAME_PREFIX_BYTES]
            .try_into()
            .expect("four prefix bytes"),
    ) as usize;
    if declared != frame.len() - FRAME_PREFIX_BYTES {
        return Err(MachineError::Frame(
            "length prefix disagrees with frame size",
        ));
    }
    let msg =
        Message::decode_from(&frame.slice(FRAME_PREFIX_BYTES..)).map_err(MachineError::Wire)?;
    // A decoded body is never empty, so the tag byte exists.
    Ok((frame[FRAME_PREFIX_BYTES], msg))
}

/// Shared non-protocol state: connection flag, driver clock, idle
/// timeout, frame encoding.
#[derive(Debug)]
struct MachineClock {
    connected: bool,
    now: u64,
    last_activity: u64,
    idle_timeout: Option<u64>,
    timed_out: bool,
    scratch: Vec<u8>,
}

impl MachineClock {
    fn new() -> Self {
        Self {
            connected: false,
            now: 0,
            last_activity: 0,
            idle_timeout: None,
            timed_out: false,
            scratch: Vec::new(),
        }
    }

    fn connect(&mut self) -> Result<(), MachineError> {
        if self.connected {
            return Err(MachineError::Frame("duplicate PeerConnected"));
        }
        self.connected = true;
        self.last_activity = self.now;
        Ok(())
    }

    /// Accepts one inbound frame: the connection must be up; the frame
    /// counts as activity and is split into its tag and message.
    fn receive(&mut self, frame: &Bytes) -> Result<(u8, Message), MachineError> {
        if !self.connected {
            return Err(MachineError::Frame("frame before PeerConnected"));
        }
        self.last_activity = self.now;
        decode_frame(frame)
    }

    /// Advances the driver clock; returns true when the idle timeout
    /// fires (at most once).
    fn tick(&mut self, now: u64, finished: bool) -> bool {
        self.now = self.now.max(now);
        match self.idle_timeout {
            Some(timeout)
                if !finished
                    && !self.timed_out
                    && self.now.saturating_sub(self.last_activity) >= timeout =>
            {
                self.timed_out = true;
                true
            }
            _ => false,
        }
    }

    /// Frames `msg` and queues it as a [`SessionAction::SendFrame`].
    fn send(
        &mut self,
        msg: &Message,
        actions: &mut Vec<SessionAction>,
    ) -> Result<(), MachineError> {
        let mut out = Vec::with_capacity(msg.frame_len());
        write_frame_buf(&mut out, msg, &mut self.scratch)
            .map_err(|_| MachineError::Frame("message exceeds frame size bounds"))?;
        actions.push(SessionAction::SendFrame(Bytes::from(out)));
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReceiverState {
    AwaitPeerSketch,
    Streaming,
    Done,
    Rejected,
}

impl ReceiverState {
    fn name(self) -> &'static str {
        match self {
            Self::AwaitPeerSketch => "await-peer-sketch",
            Self::Streaming => "streaming",
            Self::Done => "done",
            Self::Rejected => "rejected",
        }
    }
}

/// Receiver-side machine: owns its [`WorkingSet`], opens with its
/// sketch, plans the transfer, and decodes the stream into the set.
#[derive(Debug)]
pub struct ReceiverMachine {
    config: SessionConfig,
    working: WorkingSet,
    /// Decoding buffer seeded with every held symbol, so recoded
    /// arrivals resolve against the whole working set.
    buffer: RecodeBuffer,
    state: ReceiverState,
    gained: u64,
    plan: Option<TransferPlan>,
    clock: MachineClock,
}

impl ReceiverMachine {
    /// Builds the machine over a working set. Nothing is transmitted
    /// until the driver delivers [`SessionEvent::PeerConnected`].
    #[must_use]
    pub fn new(working: WorkingSet, config: SessionConfig) -> Self {
        let mut buffer = RecodeBuffer::new();
        for sym in working.sorted_symbols() {
            let _ = buffer.add_known(&sym);
        }
        Self {
            config,
            working,
            buffer,
            state: ReceiverState::AwaitPeerSketch,
            gained: 0,
            plan: None,
            clock: MachineClock::new(),
        }
    }

    /// Sets an idle timeout in driver-clock units: if that much time
    /// passes (per `TickElapsed`) with no connection or frame activity
    /// while the session is unfinished, the machine emits
    /// [`SessionAction::TimedOut`] once and goes terminal.
    #[must_use]
    pub fn with_idle_timeout(mut self, ticks: u64) -> Self {
        self.clock.idle_timeout = Some(ticks);
        self
    }

    /// Feeds one event; returns the actions for the driver to execute,
    /// in order.
    pub fn handle(&mut self, event: SessionEvent) -> Result<Vec<SessionAction>, MachineError> {
        let mut actions = Vec::new();
        match event {
            SessionEvent::PeerConnected => {
                self.clock.connect()?;
                let opening = Message::Minwise(self.working.sketch().clone());
                self.clock.send(&opening, &mut actions)?;
            }
            SessionEvent::FrameReceived(frame) => {
                let (tag, msg) = self.clock.receive(&frame)?;
                self.on_message(tag, msg, &mut actions)?;
            }
            SessionEvent::TickElapsed(now) => {
                if self.clock.tick(now, self.is_finished()) {
                    actions.push(SessionAction::TimedOut);
                }
            }
        }
        Ok(actions)
    }

    fn on_message(
        &mut self,
        tag: u8,
        msg: Message,
        actions: &mut Vec<SessionAction>,
    ) -> Result<(), MachineError> {
        match (self.state, msg) {
            (ReceiverState::AwaitPeerSketch, Message::Minwise(peer_sketch)) => {
                self.on_peer_sketch(&peer_sketch, actions)
            }
            (ReceiverState::Streaming, Message::EncodedSymbol { id, payload }) => {
                self.ingest(std::slice::from_ref(&id), &payload, actions);
                Ok(())
            }
            (
                ReceiverState::Streaming,
                Message::RecodedSymbol {
                    components,
                    payload,
                },
            ) => {
                self.ingest(&components, &payload, actions);
                Ok(())
            }
            (ReceiverState::Streaming, Message::End { .. }) => {
                self.state = ReceiverState::Done;
                actions.push(SessionAction::Completed {
                    gained: self.gained,
                });
                Ok(())
            }
            (state, _) => Err(SessionError::UnexpectedMessage {
                state: state.name(),
                tag,
            }
            .into()),
        }
    }

    /// Plans the transfer from the sketch exchange and sends the plan's
    /// frames. Every frame is built before plan and state are committed:
    /// a registry failure (unknown override id, constructor error) leaves
    /// the machine awaiting the peer sketch, not half-streaming.
    fn on_peer_sketch(
        &mut self,
        peer_sketch: &MinwiseSketch,
        actions: &mut Vec<SessionAction>,
    ) -> Result<(), MachineError> {
        if peer_sketch.family_seed() != self.working.sketch().family_seed() {
            return Err(SessionError::FamilyMismatch.into());
        }
        let estimate = self.working.estimate_against(peer_sketch);
        // An override pins the mechanism (sweeps comparing mechanisms
        // must not have policy re-deciding per cell); otherwise policy
        // scores the registry. §4 admission control applies either way —
        // a provably useless peer is rejected before any digest is built.
        let scored = plan_transfer(
            &estimate,
            &self.config.knobs,
            &self.config.sizing,
            &self.config.registry,
        );
        let plan = match (self.config.summary_override, scored) {
            (_, TransferPlan::Reject) => TransferPlan::Reject,
            (Some(id), _) => TransferPlan::Reconciled { summary: id },
            (None, scored) => scored,
        };
        let request = Message::SymbolRequest {
            count: self.config.request,
        };
        let state = match plan {
            TransferPlan::Reject => {
                self.clock.send(&Message::End { sent: 0 }, actions)?;
                ReceiverState::Rejected
            }
            TransferPlan::Reconciled { summary } => {
                if summary != SummaryId::NONE {
                    let digest = self
                        .config
                        .registry
                        .build(
                            summary,
                            &self.config.sizing,
                            &diff_estimate(&estimate),
                            &self.working.sorted_ids(),
                        )
                        .map_err(SessionError::from)?;
                    let frame = Message::Summary {
                        summary_id: summary.0,
                        body: digest.encode_body(),
                    };
                    self.clock.send(&frame, actions)?;
                }
                self.clock.send(&request, actions)?;
                ReceiverState::Streaming
            }
            TransferPlan::Speculative { .. } => {
                self.clock.send(&request, actions)?;
                ReceiverState::Streaming
            }
        };
        self.plan = Some(plan);
        self.state = state;
        if state == ReceiverState::Rejected {
            actions.push(SessionAction::Rejected);
        }
        Ok(())
    }

    fn ingest(&mut self, components: &[u64], payload: &[u8], actions: &mut Vec<SessionAction>) {
        let mut recovered = Vec::new();
        self.buffer
            .receive_parts(components, payload, &mut recovered);
        for symbol in recovered {
            let id = symbol.id;
            if self.working.insert(symbol) {
                self.gained += 1;
                actions.push(SessionAction::SymbolDecoded(id));
            }
        }
    }

    /// The machine has reached a terminal state (done, rejected, or
    /// timed out) and will take no further protocol steps.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.is_done() || self.was_rejected() || self.clock.timed_out
    }

    /// True when the stream finished normally.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.state == ReceiverState::Done
    }

    /// True when admission control rejected the peer.
    #[must_use]
    pub fn was_rejected(&self) -> bool {
        self.state == ReceiverState::Rejected
    }

    /// True when the idle timeout fired.
    #[must_use]
    pub fn timed_out(&self) -> bool {
        self.clock.timed_out
    }

    /// New distinct symbols gained so far.
    #[must_use]
    pub fn gained(&self) -> u64 {
        self.gained
    }

    /// The plan chosen after the sketch exchange (None before that).
    #[must_use]
    pub fn plan(&self) -> Option<TransferPlan> {
        self.plan
    }

    /// The working set as it stands (symbols accrue during streaming).
    #[must_use]
    pub fn working(&self) -> &WorkingSet {
        &self.working
    }

    /// Consumes the machine, returning the final working set.
    #[must_use]
    pub fn into_working(self) -> WorkingSet {
        self.working
    }

    /// Consumes a (possibly mid-flight) machine and builds a fresh one
    /// over its *current* working set — the §3 re-handshake a resuming
    /// dialer performs after a cut connection. The new session's opening
    /// sketch summarizes everything decoded so far, so symbols that
    /// landed before the cut are advertised as held and never
    /// re-requested; the caller supplies a `config` whose request count
    /// reflects what is still missing. All clock state (idle timeout,
    /// terminal flags) is reset: resumption is a new connection.
    #[must_use]
    pub fn into_resumed(self, config: SessionConfig) -> Self {
        Self::new(self.working, config)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SenderState {
    AwaitSketch,
    AwaitPlan,
    Done,
}

impl SenderState {
    fn name(self) -> &'static str {
        match self {
            Self::AwaitSketch => "await-sketch",
            Self::AwaitPlan => "await-plan",
            Self::Done => "done",
        }
    }
}

/// Sender-side machine. Owns a snapshot of the sender's working set for
/// the connection's duration (the §6.1 model: summaries and inventories
/// are not updated mid-connection) and only ever speaks in answer to
/// the receiver.
#[derive(Debug)]
pub struct SenderMachine {
    working: WorkingSet,
    registry: Arc<SummaryRegistry>,
    state: SenderState,
    /// Receiver sketch, kept for speculative-degree estimation.
    receiver_sketch: Option<MinwiseSketch>,
    /// Candidate symbols cleared by a receiver summary.
    candidates: Option<Vec<EncodedSymbol>>,
    rng: Xoshiro256StarStar,
    streamed: u64,
    clock: MachineClock,
}

impl SenderMachine {
    /// Creates the sender machine over a snapshot of its working set,
    /// with the standard registry.
    #[must_use]
    pub fn new(working: WorkingSet, seed: u64) -> Self {
        Self::with_registry(working, seed, standard_registry_arc())
    }

    /// As [`SenderMachine::new`] with an explicit summary registry (it
    /// must cover every mechanism the receiver may choose).
    #[must_use]
    pub fn with_registry(working: WorkingSet, seed: u64, registry: Arc<SummaryRegistry>) -> Self {
        Self {
            working,
            registry,
            state: SenderState::AwaitSketch,
            receiver_sketch: None,
            candidates: None,
            rng: Xoshiro256StarStar::new(seed),
            streamed: 0,
            clock: MachineClock::new(),
        }
    }

    /// Sets an idle timeout (see [`ReceiverMachine::with_idle_timeout`]).
    #[must_use]
    pub fn with_idle_timeout(mut self, ticks: u64) -> Self {
        self.clock.idle_timeout = Some(ticks);
        self
    }

    /// Feeds one event; returns the actions for the driver to execute.
    /// The sender speaks only in response to the receiver, so
    /// `PeerConnected` produces no frames.
    pub fn handle(&mut self, event: SessionEvent) -> Result<Vec<SessionAction>, MachineError> {
        let mut actions = Vec::new();
        match event {
            SessionEvent::PeerConnected => self.clock.connect()?,
            SessionEvent::FrameReceived(frame) => {
                let (tag, msg) = self.clock.receive(&frame)?;
                self.on_message(tag, msg, &mut actions)?;
            }
            SessionEvent::TickElapsed(now) => {
                if self.clock.tick(now, self.is_finished()) {
                    actions.push(SessionAction::TimedOut);
                }
            }
        }
        Ok(actions)
    }

    fn on_message(
        &mut self,
        tag: u8,
        msg: Message,
        actions: &mut Vec<SessionAction>,
    ) -> Result<(), MachineError> {
        match (self.state, msg) {
            (SenderState::AwaitSketch, Message::Minwise(sketch)) => {
                if sketch.family_seed() != self.working.sketch().family_seed() {
                    return Err(SessionError::FamilyMismatch.into());
                }
                self.clock
                    .send(&Message::Minwise(self.working.sketch().clone()), actions)?;
                self.receiver_sketch = Some(sketch);
                self.state = SenderState::AwaitPlan;
            }
            (SenderState::AwaitPlan, Message::Summary { summary_id, body }) => {
                // One dispatch for every mechanism: registry decode, then
                // the Reconciler trait produces the cleared candidates.
                let reconciler = self
                    .registry
                    .decode(SummaryId(summary_id), &body)
                    .map_err(SessionError::from)?;
                let missing = reconciler.missing_at_peer(&self.working.sorted_ids());
                let candidates = missing
                    .into_iter()
                    .filter_map(|id| {
                        self.working.payload(id).map(|p| EncodedSymbol {
                            id,
                            payload: p.clone(),
                        })
                    })
                    .collect();
                self.candidates = Some(candidates);
            }
            (SenderState::AwaitPlan, Message::SymbolRequest { count }) => {
                self.stream(count, actions)?;
            }
            (SenderState::AwaitPlan, Message::End { .. }) => {
                // Admission control rejected us; nothing was streamed.
                self.state = SenderState::Done;
                actions.push(SessionAction::Completed { gained: 0 });
            }
            (state, _) => {
                return Err(SessionError::UnexpectedMessage {
                    state: state.name(),
                    tag,
                }
                .into())
            }
        }
        Ok(())
    }

    /// Streams the answer to a request for `count` symbols, then `End`.
    fn stream(&mut self, count: u64, actions: &mut Vec<SessionAction>) -> Result<(), MachineError> {
        if count > MAX_SYMBOL_REQUEST {
            return Err(SessionError::RequestTooLarge { count }.into());
        }
        let mut sent = 0u64;
        match self.candidates.take() {
            Some(mut candidates) => {
                // Reconciled transfer: ship cleared symbols, each at most
                // once, stopping at the request or exhaustion.
                self.rng.shuffle(&mut candidates);
                for sym in candidates.into_iter().take(count as usize) {
                    // `sym.payload` is shared with the working set, so
                    // the frame costs a reference count, not a copy.
                    let msg = Message::EncodedSymbol {
                        id: sym.id,
                        payload: sym.payload,
                    };
                    self.clock.send(&msg, actions)?;
                    sent += 1;
                }
            }
            None if !self.working.is_empty() => {
                // Speculative transfer: recode over the whole set with
                // min-wise-scaled degrees.
                let containment = self.receiver_sketch.as_ref().map_or(0.0, |rs| {
                    rs.estimate(self.working.sketch()).containment_of_b()
                });
                let recoder = Recoder::new(
                    self.working.sorted_symbols(),
                    icd_fountain::recode::PAPER_DEGREE_LIMIT,
                    RecodePolicy::MinwiseScaled { containment },
                );
                for _ in 0..count {
                    let rec = recoder.generate(&mut self.rng);
                    let msg = Message::RecodedSymbol {
                        components: rec.components,
                        payload: rec.payload,
                    };
                    self.clock.send(&msg, actions)?;
                }
                sent = count;
            }
            None => {}
        }
        self.clock.send(&Message::End { sent }, actions)?;
        self.streamed = sent;
        self.state = SenderState::Done;
        actions.push(SessionAction::Completed { gained: sent });
        Ok(())
    }

    /// The machine has reached a terminal state.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.is_done() || self.clock.timed_out
    }

    /// True when the sender has answered the request (or been rejected).
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.state == SenderState::Done
    }

    /// True when the idle timeout fired.
    #[must_use]
    pub fn timed_out(&self) -> bool {
        self.clock.timed_out
    }

    /// Symbols streamed in answer to the request (the `End` count).
    #[must_use]
    pub fn streamed(&self) -> u64 {
        self.streamed
    }
}

/// What one [`FramePump::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PumpStep {
    /// At least one frame was delivered.
    Progressed,
    /// Both queues were empty — the exchange is quiescent. Stepping
    /// again stays `Idle`; the call never blocks.
    Idle,
}

/// In-memory driver for one receiver/sender machine pair. Each
/// [`FramePump::step`] moves at most one frame in each direction and
/// never blocks — the shape an event-driven scheduler needs: it can
/// interleave steps of many pumps and detect quiescence without parking
/// a thread. [`FramePump::run`] is the batch loop over the same steps.
/// Counters sum the exact framed lengths crossing each direction.
#[derive(Debug, Default)]
pub struct FramePump {
    to_sender: std::collections::VecDeque<Bytes>,
    to_receiver: std::collections::VecDeque<Bytes>,
    bytes_to_sender: u64,
    bytes_to_receiver: u64,
    frames_to_sender: u64,
    frames_to_receiver: u64,
}

impl FramePump {
    /// Creates an empty pump; call [`FramePump::start`] to connect the
    /// machines.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Delivers `PeerConnected` to both machines and queues the
    /// receiver's opening frames. Non-transport actions are appended to
    /// `actions`.
    pub fn start(
        &mut self,
        receiver: &mut ReceiverMachine,
        sender: &mut SenderMachine,
        actions: &mut Vec<SessionAction>,
    ) -> Result<(), MachineError> {
        self.route(receiver.handle(SessionEvent::PeerConnected)?, true, actions);
        self.route(sender.handle(SessionEvent::PeerConnected)?, false, actions);
        Ok(())
    }

    fn route(
        &mut self,
        from: Vec<SessionAction>,
        from_receiver: bool,
        sink: &mut Vec<SessionAction>,
    ) {
        for action in from {
            match action {
                SessionAction::SendFrame(frame) => {
                    if from_receiver {
                        self.bytes_to_sender += frame.len() as u64;
                        self.frames_to_sender += 1;
                        self.to_sender.push_back(frame);
                    } else {
                        self.bytes_to_receiver += frame.len() as u64;
                        self.frames_to_receiver += 1;
                        self.to_receiver.push_back(frame);
                    }
                }
                other => sink.push(other),
            }
        }
    }

    /// True when no frame is queued in either direction.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.to_sender.is_empty() && self.to_receiver.is_empty()
    }

    /// Total framed bytes sent so far `(to_sender, to_receiver)`.
    #[must_use]
    pub fn wire_bytes(&self) -> (u64, u64) {
        (self.bytes_to_sender, self.bytes_to_receiver)
    }

    /// Frames sent so far `(to_sender, to_receiver)`.
    #[must_use]
    pub fn frames(&self) -> (u64, u64) {
        (self.frames_to_sender, self.frames_to_receiver)
    }

    /// Delivers at most one queued frame to each machine. Non-transport
    /// actions are appended to `actions`; frames are re-queued toward
    /// the opposite side.
    pub fn step(
        &mut self,
        receiver: &mut ReceiverMachine,
        sender: &mut SenderMachine,
        actions: &mut Vec<SessionAction>,
    ) -> Result<PumpStep, MachineError> {
        let mut progressed = false;
        if let Some(frame) = self.to_sender.pop_front() {
            let out = sender.handle(SessionEvent::FrameReceived(frame))?;
            self.route(out, false, actions);
            progressed = true;
        }
        if let Some(frame) = self.to_receiver.pop_front() {
            let out = receiver.handle(SessionEvent::FrameReceived(frame))?;
            self.route(out, true, actions);
            progressed = true;
        }
        Ok(if progressed {
            PumpStep::Progressed
        } else {
            PumpStep::Idle
        })
    }

    /// Drives both machines to quiescence, returning all non-transport
    /// actions in delivery order.
    pub fn run(
        &mut self,
        receiver: &mut ReceiverMachine,
        sender: &mut SenderMachine,
    ) -> Result<Vec<SessionAction>, MachineError> {
        let mut actions = Vec::new();
        self.start(receiver, sender, &mut actions)?;
        while self.step(receiver, sender, &mut actions)? == PumpStep::Progressed {}
        Ok(actions)
    }
}

/// Wire-exact byte counters a blocking driver accumulates: every frame
/// written or read, prefix included, split by plane (data = encoded or
/// recoded symbol frames, control = everything else).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WireStats {
    /// Framed bytes of control traffic (sketches, summary, request, end).
    pub control_bytes: u64,
    /// Framed bytes of data traffic (encoded/recoded symbol frames).
    pub data_bytes: u64,
    /// Total frames moved in either direction.
    pub frames: u64,
}

impl WireStats {
    /// Books one frame (either direction): the whole framed length,
    /// classified data vs control by its message tag.
    pub fn count(&mut self, frame: &Bytes) {
        self.frames += 1;
        let data = frame
            .get(FRAME_PREFIX_BYTES)
            .is_some_and(|&tag| Message::is_data_tag(tag));
        if data {
            self.data_bytes += frame.len() as u64;
        } else {
            self.control_bytes += frame.len() as u64;
        }
    }

    /// Total framed bytes moved.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.control_bytes + self.data_bytes
    }
}

/// Counters accumulate across attempts: a retrying dialer sums the
/// partial stats of every severed attempt into the final report, so
/// wasted wire bytes stay visible instead of vanishing with the failed
/// connection.
impl std::ops::AddAssign for WireStats {
    fn add_assign(&mut self, other: Self) {
        self.control_bytes += other.control_bytes;
        self.data_bytes += other.data_bytes;
        self.frames += other.frames;
    }
}

/// Errors from the blocking stream drivers. Every variant carries the
/// wire counters of the frames that crossed before the failure (a frame
/// the stream accepted any byte of is booked), so a retrying dialer can
/// sum the traffic of dead attempts instead of losing it with the
/// connection.
#[derive(Debug)]
pub enum DriveError {
    /// The transport failed (I/O error, oversized, truncated or garbled
    /// frame).
    Transport {
        /// What the framing layer reported.
        error: FrameError,
        /// Wire bytes moved before the failure.
        stats: WireStats,
    },
    /// The machine rejected an event.
    Machine {
        /// What the machine reported.
        error: MachineError,
        /// Wire bytes moved before the failure.
        stats: WireStats,
    },
    /// The peer closed the stream before the session finished.
    PeerClosed {
        /// Wire bytes moved before the premature close.
        stats: WireStats,
    },
    /// A configured read timeout elapsed before the session finished —
    /// the peer is alive-but-silent or gone without a FIN. The stream
    /// must be discarded (a partial frame may be in flight).
    ReadTimeout {
        /// Wire bytes moved before the timeout.
        stats: WireStats,
    },
}

impl DriveError {
    /// Wire bytes moved before the failure.
    #[must_use]
    pub fn stats(&self) -> WireStats {
        match self {
            Self::Transport { stats, .. }
            | Self::Machine { stats, .. }
            | Self::PeerClosed { stats }
            | Self::ReadTimeout { stats } => *stats,
        }
    }

    /// Whether a redial may succeed: the peer closed, a deadline fired,
    /// or the transport failed transiently. Machine errors never are.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        match self {
            Self::Transport { error, .. } => error.is_transient(),
            Self::Machine { .. } => false,
            Self::PeerClosed { .. } | Self::ReadTimeout { .. } => true,
        }
    }
}

impl std::fmt::Display for DriveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        match self {
            Self::Transport { error, .. } => write!(f, "transport: {error}")?,
            Self::Machine { error, .. } => write!(f, "machine: {error}")?,
            Self::PeerClosed { .. } => write!(f, "peer closed mid-session")?,
            Self::ReadTimeout { .. } => write!(f, "read timeout mid-session")?,
        }
        write!(
            f,
            " after {} bytes in {} frames",
            stats.total(),
            stats.frames
        )
    }
}

impl std::error::Error for DriveError {}

/// Writes one machine step's frames — every `SendFrame` in `actions`,
/// concatenated into `out` — with as few `write` calls as the stream
/// accepts them in, then books them. A failed write books every frame
/// the stream accepted at least one byte of: those bytes may have
/// reached the peer, so a retrying dialer's sums keep them.
fn execute<S: std::io::Write>(
    actions: &[SessionAction],
    stream: &mut S,
    out: &mut Vec<u8>,
    stats: &mut WireStats,
) -> Result<(), DriveError> {
    let frames = || {
        actions.iter().filter_map(|action| match action {
            SessionAction::SendFrame(frame) => Some(frame),
            _ => None,
        })
    };
    out.clear();
    frames().for_each(|frame| out.extend_from_slice(frame));
    let mut written = 0;
    let mut failure = None;
    while written < out.len() {
        match stream.write(&out[written..]) {
            Ok(0) => {
                failure = Some(std::io::ErrorKind::WriteZero.into());
                break;
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    let mut start = 0;
    for frame in frames() {
        if start >= written {
            break;
        }
        stats.count(frame);
        start += frame.len();
    }
    match failure {
        None => Ok(()),
        // Through `FrameError::from`, so a write deadline
        // (WouldBlock/TimedOut) classifies as the transient
        // `FrameError::TimedOut` a retry policy may redial on, not an
        // opaque I/O failure.
        Some(e) => Err(DriveError::Transport {
            error: FrameError::from(e),
            stats: *stats,
        }),
    }
}

/// Maps a mid-session read failure to the typed driver error. The drive
/// loops only read while the machine is unfinished, so `Closed` here is
/// always a *premature* close, never a normal shutdown.
fn read_failure(e: FrameError, stats: WireStats) -> DriveError {
    match e {
        FrameError::Closed => DriveError::PeerClosed { stats },
        FrameError::TimedOut => DriveError::ReadTimeout { stats },
        error => DriveError::Transport { error, stats },
    }
}

/// What the blocking driver needs of a machine; both machines are one.
trait Driven {
    fn handle(&mut self, event: SessionEvent) -> Result<Vec<SessionAction>, MachineError>;
    fn is_finished(&self) -> bool;
}

impl Driven for ReceiverMachine {
    fn handle(&mut self, event: SessionEvent) -> Result<Vec<SessionAction>, MachineError> {
        ReceiverMachine::handle(self, event)
    }
    fn is_finished(&self) -> bool {
        ReceiverMachine::is_finished(self)
    }
}

impl Driven for SenderMachine {
    fn handle(&mut self, event: SessionEvent) -> Result<Vec<SessionAction>, MachineError> {
        SenderMachine::handle(self, event)
    }
    fn is_finished(&self) -> bool {
        SenderMachine::is_finished(self)
    }
}

/// The one blocking drive loop: connect, then feed inbound frames until
/// the machine finishes. Inbound frames come through one buffered
/// [`FrameReader`]; each step's outbound frames leave as one batch
/// ([`execute`]); `observe` sees each step's actions after its batch is
/// written.
fn drive<M, S, F>(
    machine: &mut M,
    stream: &mut S,
    limit: FrameLimit,
    mut observe: F,
) -> Result<WireStats, DriveError>
where
    M: Driven,
    S: std::io::Read + std::io::Write,
    F: FnMut(&SessionAction, &M),
{
    let mut stats = WireStats::default();
    let mut reader = FrameReader::new(limit);
    let mut out = Vec::new();
    let mut event = SessionEvent::PeerConnected;
    loop {
        let actions = machine
            .handle(event)
            .map_err(|error| DriveError::Machine { error, stats })?;
        execute(&actions, stream, &mut out, &mut stats)?;
        for action in &actions {
            observe(action, machine);
        }
        if machine.is_finished() {
            return Ok(stats);
        }
        let frame = reader
            .next_frame(stream)
            .map_err(|e| read_failure(e, stats))?;
        stats.count(&frame);
        event = SessionEvent::FrameReceived(frame);
    }
}

/// Runs a [`ReceiverMachine`] over a blocking stream until the session
/// finishes. Returns wire-exact byte counters for every frame that
/// crossed the stream in either direction. A peer that closes or goes
/// silent (with a socket read timeout set) before the session finishes
/// yields [`DriveError::PeerClosed`] / [`DriveError::ReadTimeout`]
/// carrying the partial counters.
///
/// Each machine step's frames go out as one batch of `write` calls, and
/// inbound frames are read through a [`FrameReader`] that may buffer
/// past the session's last frame: the stream carries this session only.
pub fn drive_receiver<S: std::io::Read + std::io::Write>(
    machine: &mut ReceiverMachine,
    stream: &mut S,
    limit: FrameLimit,
) -> Result<WireStats, DriveError> {
    drive(machine, stream, limit, |_, _| {})
}

/// [`drive_receiver`] with a per-action observer: after each batch of
/// reply frames is written, `observe` sees every action the machine
/// emitted alongside the machine itself. A daemon uses this to ingest
/// [`SessionAction::SymbolDecoded`] ids into a shared working set while
/// the session is still running, so parallel sessions benefit from each
/// other's progress.
pub fn drive_receiver_with<S, F>(
    machine: &mut ReceiverMachine,
    stream: &mut S,
    limit: FrameLimit,
    observe: F,
) -> Result<WireStats, DriveError>
where
    S: std::io::Read + std::io::Write,
    F: FnMut(&SessionAction, &ReceiverMachine),
{
    drive(machine, stream, limit, observe)
}

/// Runs a [`SenderMachine`] over a blocking stream: feed inbound frames,
/// write replies, stop when the session completes. Batching, buffering
/// and the typed errors for a premature close or read timeout are
/// [`drive_receiver`]'s.
pub fn drive_sender<S: std::io::Read + std::io::Write>(
    machine: &mut SenderMachine,
    stream: &mut S,
    limit: FrameLimit,
) -> Result<WireStats, DriveError> {
    drive(machine, stream, limit, |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use icd_fountain::EncodedSymbol;
    use icd_util::rng::{Rng64, Xoshiro256StarStar};

    fn sym(id: u64) -> EncodedSymbol {
        EncodedSymbol {
            id,
            payload: Bytes::from(id.to_le_bytes().to_vec()),
        }
    }

    fn working(ids: &[u64]) -> WorkingSet {
        WorkingSet::from_symbols(ids.iter().map(|&id| sym(id)))
    }

    fn ids(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = Xoshiro256StarStar::new(seed);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    /// `shared` plus `fresh`: the sender side of a transfer whose true
    /// difference is `fresh`.
    fn union(shared: &[u64], fresh: &[u64]) -> Vec<u64> {
        shared.iter().chain(fresh).copied().collect()
    }

    /// One message as the whole frame a peer would put on the wire.
    fn frame(msg: &Message) -> Bytes {
        let mut out = Vec::new();
        write_frame_buf(&mut out, msg, &mut Vec::new()).expect("frame");
        Bytes::from(out)
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// Folds `bytes` into the FNV-1a hash `h`.
    fn fnv_fold(h: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// FNV-1a over the ids' little-endian bytes: a compact fingerprint
    /// of a final working set.
    fn fnv(ids: &[u64]) -> u64 {
        ids.iter()
            .fold(FNV_OFFSET, |h, id| fnv_fold(h, &id.to_le_bytes()))
    }

    /// Build the canonical overlapping scenario: receiver has
    /// shared ∪ receiver-extra, sender shared ∪ sender-extra.
    fn machines(request: u64) -> (ReceiverMachine, SenderMachine, usize) {
        let shared = ids(600, 1);
        let fresh = ids(250, 2);
        let receiver =
            ReceiverMachine::new(working(&shared), SessionConfig::new().with_request(request));
        let sender = SenderMachine::new(working(&union(&shared, &fresh)), 7);
        (receiver, sender, fresh.len())
    }

    /// Runs one session to quiescence, returning the receiver and pump.
    fn run(
        receiver_ws: WorkingSet,
        sender_ws: WorkingSet,
        config: SessionConfig,
        seed: u64,
    ) -> (ReceiverMachine, FramePump) {
        let mut receiver = ReceiverMachine::new(receiver_ws, config);
        let mut sender = SenderMachine::new(sender_ws, seed);
        let mut pump = FramePump::new();
        pump.run(&mut receiver, &mut sender).expect("run");
        assert!(sender.is_done(), "sender must answer every session");
        (receiver, pump)
    }

    #[test]
    fn machines_complete_a_transfer_with_wire_exact_bytes() {
        let (mut receiver, mut sender, fresh) = machines(1000);
        let mut pump = FramePump::new();
        let actions = pump.run(&mut receiver, &mut sender).expect("run");
        assert!(receiver.is_done());
        assert!(sender.is_done());
        let decoded: Vec<u64> = actions
            .iter()
            .filter_map(|a| match a {
                SessionAction::SymbolDecoded(id) => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(decoded.len() as u64, receiver.gained());
        assert!(receiver.gained() as usize > fresh * 9 / 10);
        // Every decoded id is genuinely in the final working set.
        for id in &decoded {
            assert!(receiver.working().contains(*id));
        }
        // Completion actions fired exactly once per side.
        let completions = actions
            .iter()
            .filter(|a| matches!(a, SessionAction::Completed { .. }))
            .count();
        assert_eq!(completions, 2);
        // Pump byte counters are sums of whole frame lengths, which are
        // at least prefix + tag + something per frame.
        let (to_sender, to_receiver) = pump.wire_bytes();
        assert!(to_sender > 0 && to_receiver > 0);
    }

    #[test]
    fn machines_reproduce_the_message_level_reference() {
        // Captured from the retired message-level session layer (its
        // batch pump, summing `Message::frame_len`) before that layer was
        // folded into these machines: the folded protocol must move the
        // same bytes in the same frames and end with the same working
        // set.
        let shared = ids(500, 11);
        let fresh = ids(200, 12);
        let (receiver, pump) = run(
            working(&shared),
            working(&union(&shared, &fresh)),
            SessionConfig::new().with_request(500),
            7,
        );
        let (to_sender, to_receiver) = pump.wire_bytes();
        assert_eq!(to_sender + to_receiver, 8089);
        assert_eq!(pump.frames(), (3, 200));
        assert_eq!(receiver.gained(), 198);
        assert_eq!(
            receiver.plan(),
            Some(TransferPlan::Reconciled {
                summary: SummaryId::HASH_SET
            })
        );
        let final_ids = receiver.working().sorted_ids();
        assert_eq!(final_ids.len(), 698);
        assert_eq!(fnv(&final_ids), 0xf207_c838_2d46_b97e);
    }

    #[test]
    fn identical_peers_reject_after_two_sketches_and_an_end() {
        let shared = ids(400, 21);
        let mut receiver = ReceiverMachine::new(working(&shared), SessionConfig::default());
        let mut sender = SenderMachine::new(working(&shared), 3);
        let mut pump = FramePump::new();
        let actions = pump.run(&mut receiver, &mut sender).expect("run");
        assert!(receiver.was_rejected() && receiver.is_finished());
        assert!(sender.is_done());
        assert_eq!(receiver.gained(), 0);
        assert_eq!(receiver.plan(), Some(TransferPlan::Reject));
        assert!(actions.contains(&SessionAction::Rejected));
        assert!(!actions
            .iter()
            .any(|a| matches!(a, SessionAction::SymbolDecoded(_))));
        // Admission control costs exactly: sketch out, sketch back, end.
        let sketch = Message::Minwise(receiver.working().sketch().clone()).frame_len() as u64;
        let end = Message::End { sent: 0 }.frame_len() as u64;
        assert_eq!(pump.frames(), (2, 1));
        assert_eq!(pump.wire_bytes(), (sketch + end, sketch));
    }

    #[test]
    fn bloom_reconciled_transfer_moves_only_useful_symbols() {
        let shared = ids(1000, 2);
        let fresh = ids(300, 3);
        let (receiver, _) = run(
            working(&shared),
            working(&union(&shared, &fresh)),
            SessionConfig::new().with_request(1000),
            8,
        );
        assert!(receiver.is_done());
        assert_eq!(
            receiver.plan(),
            Some(TransferPlan::Reconciled {
                summary: SummaryId::BLOOM
            })
        );
        // Gained symbols ⊆ fresh, and nearly all of fresh (Bloom FPs may
        // withhold a few).
        assert!(receiver.gained() as usize <= fresh.len());
        assert!(
            receiver.gained() as usize > fresh.len() * 9 / 10,
            "gained {} of {}",
            receiver.gained(),
            fresh.len()
        );
        for id in &fresh {
            if let Some(payload) = receiver.working().payload(*id) {
                assert_eq!(payload.as_ref(), &id.to_le_bytes());
            }
        }
    }

    #[test]
    fn art_plan_for_small_differences() {
        let shared = ids(3000, 4);
        let fresh = ids(30, 5); // 1 % difference → ART territory
        let (receiver, _) = run(
            working(&shared),
            working(&union(&shared, &fresh)),
            SessionConfig::new().with_request(100),
            9,
        );
        assert!(receiver.is_done());
        assert_eq!(
            receiver.plan(),
            Some(TransferPlan::Reconciled {
                summary: SummaryId::ART
            })
        );
        assert!(
            receiver.gained() > 0,
            "ART transfer should deliver something"
        );
        // Nothing held before the session is lost.
        for id in &shared {
            assert!(receiver.working().contains(*id));
        }
    }

    #[test]
    fn speculative_transfer_for_weak_clients() {
        let shared = ids(400, 6);
        let fresh = ids(400, 7);
        let config = SessionConfig::new()
            .with_request(2000)
            .with_knobs(PolicyKnobs {
                fine_grained_capable: false,
                ..PolicyKnobs::default()
            });
        let (receiver, _) = run(
            working(&shared),
            working(&union(&shared, &fresh)),
            config,
            10,
        );
        assert!(receiver.is_done());
        assert!(matches!(
            receiver.plan(),
            Some(TransferPlan::Speculative { .. })
        ));
        assert!(
            receiver.gained() as usize > fresh.len() / 2,
            "recoded stream should deliver a good share: {}",
            receiver.gained()
        );
        // Payload integrity through recoded XOR paths.
        for id in &fresh {
            if let Some(payload) = receiver.working().payload(*id) {
                assert_eq!(payload.as_ref(), &id.to_le_bytes());
            }
        }
    }

    #[test]
    fn speculative_stream_is_independent_of_insertion_order() {
        // A recoded stream is a function of the two sets and the seed:
        // the same sets built in opposite insertion orders must put the
        // same frames on the wire, pinned here as one FNV-1a hash over
        // every frame in delivery order.
        let shared = ids(300, 50);
        let fresh = ids(100, 51);
        let sender_ids = union(&shared, &fresh);
        let reversed = |v: &[u64]| v.iter().rev().copied().collect::<Vec<_>>();
        let config = SessionConfig::new()
            .with_request(150)
            .with_knobs(PolicyKnobs {
                fine_grained_capable: false,
                ..PolicyKnobs::default()
            });
        let frame_hash = |receiver_ids: &[u64], sender_ids: &[u64]| {
            let mut receiver = ReceiverMachine::new(working(receiver_ids), config.clone());
            let mut sender = SenderMachine::new(working(sender_ids), 52);
            let mut pump = FramePump::new();
            let mut actions = Vec::new();
            pump.start(&mut receiver, &mut sender, &mut actions)
                .expect("start");
            let mut hash = FNV_OFFSET;
            loop {
                for frame in pump
                    .to_sender
                    .front()
                    .into_iter()
                    .chain(pump.to_receiver.front())
                {
                    hash = fnv_fold(hash, frame);
                }
                if pump
                    .step(&mut receiver, &mut sender, &mut actions)
                    .expect("step")
                    == PumpStep::Idle
                {
                    break;
                }
            }
            assert!(matches!(
                receiver.plan(),
                Some(TransferPlan::Speculative { .. })
            ));
            (hash, pump.frames(), receiver.gained())
        };
        let forward = frame_hash(&shared, &sender_ids);
        assert_eq!(
            forward,
            frame_hash(&reversed(&shared), &reversed(&sender_ids))
        );
        assert_eq!(forward, (0x1b2d_c418_8e73_2194, (2, 152), 28));
    }

    #[test]
    fn summary_override_does_not_bypass_admission_control() {
        // §4: an identical peer is rejected even when a sweep pins a
        // mechanism — no digest is built for a provably useless sender.
        let shared = ids(500, 40);
        let config = SessionConfig::new().with_summary(SummaryId::WHOLE_SET);
        let (receiver, pump) = run(working(&shared), working(&shared), config, 41);
        assert!(receiver.was_rejected());
        assert_eq!(receiver.plan(), Some(TransferPlan::Reject));
        assert_eq!(receiver.gained(), 0);
        assert_eq!(pump.frames(), (2, 1), "no summary frame may be sent");
    }

    #[test]
    fn request_bounds_the_stream() {
        let (receiver, _) = run(
            working(&ids(100, 13)),
            working(&ids(500, 14)), // disjoint
            SessionConfig::new().with_request(50),
            15,
        );
        assert!(receiver.is_done());
        assert!(receiver.gained() <= 50);
        assert!(receiver.gained() >= 45, "gained {}", receiver.gained());
    }

    #[test]
    fn protocol_violations_are_errors() {
        let ws = working(&ids(10, 11));
        let mut receiver = ReceiverMachine::new(ws.clone(), SessionConfig::default());
        receiver
            .handle(SessionEvent::PeerConnected)
            .expect("connect");
        let request = frame(&Message::SymbolRequest { count: 1 });
        assert!(matches!(
            receiver.handle(SessionEvent::FrameReceived(request)),
            Err(MachineError::Session(SessionError::UnexpectedMessage {
                state: "await-peer-sketch",
                ..
            }))
        ));
        let mut sender = SenderMachine::new(ws, 12);
        sender.handle(SessionEvent::PeerConnected).expect("connect");
        let end = frame(&Message::End { sent: 0 });
        assert!(matches!(
            sender.handle(SessionEvent::FrameReceived(end)),
            Err(MachineError::Session(SessionError::UnexpectedMessage {
                state: "await-sketch",
                ..
            }))
        ));
        assert!(!receiver.is_finished() && !sender.is_finished());
    }

    #[test]
    fn receiver_build_failure_leaves_the_machine_intact() {
        // An override naming an unregistered mechanism errors on the
        // peer sketch — and the machine stays awaiting the sketch with no
        // plan and no frame sent, so a corrected retry (or clean
        // teardown) is possible.
        let send_ws = working(&ids(200, 31));
        let config = SessionConfig::new().with_summary(SummaryId(0x8001));
        let mut receiver = ReceiverMachine::new(working(&ids(200, 30)), config);
        receiver
            .handle(SessionEvent::PeerConnected)
            .expect("connect");
        let peer = frame(&Message::Minwise(send_ws.sketch().clone()));
        for _ in 0..2 {
            // Still awaiting a sketch: the same frame is not "unexpected".
            assert!(matches!(
                receiver.handle(SessionEvent::FrameReceived(peer.clone())),
                Err(MachineError::Session(SessionError::UnknownSummary {
                    id: 0x8001
                }))
            ));
            assert!(receiver.plan().is_none(), "no plan may be committed");
        }
    }

    #[test]
    fn unknown_and_malformed_summaries_are_errors() {
        let shared = ids(100, 20);
        let mut sender = SenderMachine::new(working(&shared), 21);
        sender.handle(SessionEvent::PeerConnected).expect("connect");
        let sketch = frame(&Message::Minwise(working(&shared).sketch().clone()));
        sender
            .handle(SessionEvent::FrameReceived(sketch))
            .expect("sketch accepted");
        // An id outside the registry.
        let unknown = frame(&Message::Summary {
            summary_id: 0x7777,
            body: vec![],
        });
        assert!(matches!(
            sender.handle(SessionEvent::FrameReceived(unknown)),
            Err(MachineError::Session(SessionError::UnknownSummary {
                id: 0x7777
            }))
        ));
        // A registered id with a garbage body.
        let garbage = frame(&Message::Summary {
            summary_id: SummaryId::BLOOM.0,
            body: vec![1, 2, 3],
        });
        assert!(matches!(
            sender.handle(SessionEvent::FrameReceived(garbage)),
            Err(MachineError::Session(SessionError::MalformedSummary(_)))
        ));
    }

    #[test]
    fn oversized_symbol_request_is_refused_before_streaming() {
        // A hostile receiver skips the summary and asks for u64::MAX
        // speculative symbols: the sender must refuse without
        // generating any, not materialise an unbounded stream.
        let ws = working(&ids(300, 50));
        let mut sender = SenderMachine::new(ws.clone(), 51);
        sender.handle(SessionEvent::PeerConnected).expect("connect");
        let sketch = frame(&Message::Minwise(ws.sketch().clone()));
        sender
            .handle(SessionEvent::FrameReceived(sketch))
            .expect("sketch accepted");
        for count in [u64::MAX, MAX_SYMBOL_REQUEST + 1] {
            let request = frame(&Message::SymbolRequest { count });
            assert!(matches!(
                sender.handle(SessionEvent::FrameReceived(request)),
                Err(MachineError::Session(SessionError::RequestTooLarge { count: c })) if c == count
            ));
            assert!(!sender.is_finished() && sender.streamed() == 0);
        }
        // The refusals left the machine intact: a bounded request is
        // still answered.
        let request = frame(&Message::SymbolRequest { count: 10 });
        let actions = sender
            .handle(SessionEvent::FrameReceived(request))
            .expect("bounded request");
        assert_eq!(
            actions.last(),
            Some(&SessionAction::Completed { gained: 10 })
        );
    }

    #[test]
    fn idle_timeout_is_driver_clocked() {
        let (receiver, _sender, _) = machines(10);
        let mut receiver = receiver.with_idle_timeout(5);
        let connect = receiver
            .handle(SessionEvent::PeerConnected)
            .expect("connect");
        assert!(matches!(connect[0], SessionAction::SendFrame(_)));
        // Time only moves when the driver says so.
        assert!(receiver
            .handle(SessionEvent::TickElapsed(4))
            .expect("tick")
            .is_empty());
        let fired = receiver.handle(SessionEvent::TickElapsed(5)).expect("tick");
        assert_eq!(fired, vec![SessionAction::TimedOut]);
        assert!(receiver.timed_out() && receiver.is_finished());
        // The timeout reports once, not every tick.
        assert!(receiver
            .handle(SessionEvent::TickElapsed(100))
            .expect("tick")
            .is_empty());
    }

    #[test]
    fn event_misuse_is_an_error_not_a_panic() {
        let (mut receiver, mut sender, _) = machines(10);
        let frame = Bytes::from_static(&[1, 0, 0, 0, 0x7F]);
        assert!(matches!(
            receiver.handle(SessionEvent::FrameReceived(frame.clone())),
            Err(MachineError::Frame(_))
        ));
        sender.handle(SessionEvent::PeerConnected).expect("connect");
        assert!(matches!(
            sender.handle(SessionEvent::PeerConnected),
            Err(MachineError::Frame(_))
        ));
        // A frame whose prefix lies about its length is rejected.
        receiver
            .handle(SessionEvent::PeerConnected)
            .expect("connect");
        let lying = Bytes::from_static(&[9, 0, 0, 0, 0x7F]);
        assert!(matches!(
            receiver.handle(SessionEvent::FrameReceived(lying)),
            Err(MachineError::Frame(_))
        ));
        // Truncated-at-prefix frames too.
        let stub = Bytes::from_static(&[1, 0]);
        assert!(matches!(
            receiver.handle(SessionEvent::FrameReceived(stub)),
            Err(MachineError::Frame(_))
        ));
    }

    // An in-memory duplex "socket": two Vec-backed half-channels.
    // Exercises drive_receiver/drive_sender — the exact code the real
    // daemon runs — without touching the network.
    struct Half {
        incoming: std::sync::mpsc::Receiver<Vec<u8>>,
        outgoing: std::sync::mpsc::Sender<Vec<u8>>,
        residue: Vec<u8>,
    }
    impl std::io::Read for Half {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            while self.residue.is_empty() {
                match self.incoming.recv() {
                    Ok(chunk) => self.residue = chunk,
                    Err(_) => return Ok(0),
                }
            }
            let n = buf.len().min(self.residue.len());
            buf[..n].copy_from_slice(&self.residue[..n]);
            self.residue.drain(..n);
            Ok(n)
        }
    }
    impl std::io::Write for Half {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            // A send after the peer hung up is a closed stream.
            self.outgoing
                .send(buf.to_vec())
                .map_err(|_| std::io::Error::from(std::io::ErrorKind::BrokenPipe))?;
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn duplex() -> (Half, Half) {
        let (a_tx, b_rx) = std::sync::mpsc::channel();
        let (b_tx, a_rx) = std::sync::mpsc::channel();
        (
            Half {
                incoming: a_rx,
                outgoing: a_tx,
                residue: Vec::new(),
            },
            Half {
                incoming: b_rx,
                outgoing: b_tx,
                residue: Vec::new(),
            },
        )
    }

    #[test]
    fn blocking_drivers_run_the_same_machines_over_a_duplex_pipe() {
        let (mut receiver_half, mut sender_half) = duplex();

        let (mut receiver, mut sender, fresh) = machines(1000);
        let sender_thread = std::thread::spawn(move || {
            let stats = drive_sender(&mut sender, &mut sender_half, FrameLimit::default())
                .expect("sender drive");
            (sender, stats)
        });
        let recv_stats = drive_receiver(&mut receiver, &mut receiver_half, FrameLimit::default())
            .expect("receiver drive");
        drop(receiver_half);
        let (sender, send_stats) = sender_thread.join().expect("join");

        assert!(receiver.is_done() && sender.is_done());
        assert!(receiver.gained() as usize > fresh * 9 / 10);
        // Both endpoints saw the same frames, so the counters agree.
        assert_eq!(recv_stats, send_stats);
        assert!(recv_stats.data_bytes > recv_stats.control_bytes);
        assert!(recv_stats.control_bytes > 0);
    }

    #[test]
    fn observer_sees_decoded_symbols_as_they_land() {
        let (mut receiver_half, mut sender_half) = duplex();
        let (mut receiver, mut sender, _) = machines(1000);
        let sender_thread = std::thread::spawn(move || {
            drive_sender(&mut sender, &mut sender_half, FrameLimit::default()).expect("sender")
        });
        let mut seen = Vec::new();
        drive_receiver_with(
            &mut receiver,
            &mut receiver_half,
            FrameLimit::default(),
            |action, machine| {
                if let SessionAction::SymbolDecoded(id) = action {
                    // The machine's working set already holds the symbol
                    // when the observer fires — live ingestion is sound.
                    assert!(machine.working().contains(*id));
                    seen.push(*id);
                }
            },
        )
        .expect("receiver");
        drop(receiver_half);
        sender_thread.join().expect("join");
        assert_eq!(seen.len() as u64, receiver.gained());
        assert!(!seen.is_empty());
    }

    /// A stream that records each `write` call's bytes on the way
    /// through: the batching the drivers promise is visible per call.
    struct Recording<S> {
        inner: S,
        writes: Vec<Vec<u8>>,
    }
    impl<S: std::io::Read> std::io::Read for Recording<S> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.inner.read(buf)
        }
    }
    impl<S: std::io::Write> std::io::Write for Recording<S> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            self.inner.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }
    }

    /// The frames of one `handle` call's actions.
    fn sent(actions: Vec<SessionAction>) -> Vec<Bytes> {
        actions
            .into_iter()
            .filter_map(|action| match action {
                SessionAction::SendFrame(frame) => Some(frame),
                _ => None,
            })
            .collect()
    }

    /// Runs a machine pair by hand and returns, per side, one entry per
    /// `handle` call that emitted frames: those frames concatenated —
    /// exactly what a batching driver must write, call by call.
    fn step_batches(
        receiver: &mut ReceiverMachine,
        sender: &mut SenderMachine,
    ) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let (mut from_receiver, mut from_sender) = (Vec::new(), Vec::new());
        let mut to_sender = std::collections::VecDeque::new();
        let mut to_receiver = std::collections::VecDeque::new();
        let step = |frames: Vec<Bytes>,
                    batches: &mut Vec<Vec<u8>>,
                    queue: &mut std::collections::VecDeque<Bytes>| {
            if !frames.is_empty() {
                batches.push(frames.iter().flat_map(|f| f.iter().copied()).collect());
            }
            queue.extend(frames);
        };
        let opening = sent(
            receiver
                .handle(SessionEvent::PeerConnected)
                .expect("connect"),
        );
        step(opening, &mut from_receiver, &mut to_sender);
        let opening = sent(sender.handle(SessionEvent::PeerConnected).expect("connect"));
        step(opening, &mut from_sender, &mut to_receiver);
        loop {
            if let Some(frame) = to_sender.pop_front() {
                let out = sent(
                    sender
                        .handle(SessionEvent::FrameReceived(frame))
                        .expect("send"),
                );
                step(out, &mut from_sender, &mut to_receiver);
            } else if let Some(frame) = to_receiver.pop_front() {
                let out = sent(
                    receiver
                        .handle(SessionEvent::FrameReceived(frame))
                        .expect("recv"),
                );
                step(out, &mut from_receiver, &mut to_sender);
            } else {
                break;
            }
        }
        (from_receiver, from_sender)
    }

    #[test]
    fn drivers_write_each_machine_step_as_one_batch() {
        let (mut twin_receiver, mut twin_sender, _) = machines(1000);
        let (receiver_batches, sender_batches) = step_batches(&mut twin_receiver, &mut twin_sender);
        // The stream phase is one step of many frames: batching matters.
        assert!(sender_batches.iter().any(|b| b.len() > 10 * 76));

        let (receiver_half, sender_half) = duplex();
        let (mut receiver, mut sender, _) = machines(1000);
        let sender_thread = std::thread::spawn(move || {
            let mut stream = Recording {
                inner: sender_half,
                writes: Vec::new(),
            };
            let stats =
                drive_sender(&mut sender, &mut stream, FrameLimit::default()).expect("sender");
            (stream.writes, stats)
        });
        let mut stream = Recording {
            inner: receiver_half,
            writes: Vec::new(),
        };
        let recv_stats =
            drive_receiver(&mut receiver, &mut stream, FrameLimit::default()).expect("receiver");
        drop(stream.inner);
        let (sender_writes, send_stats) = sender_thread.join().expect("join");
        // One write per step that emitted frames, carrying exactly that
        // step's frames in order.
        assert_eq!(stream.writes, receiver_batches);
        assert_eq!(sender_writes, sender_batches);
        assert_eq!(recv_stats, send_stats);
        let wire: usize = receiver_batches
            .iter()
            .chain(&sender_batches)
            .map(Vec::len)
            .sum();
        assert_eq!(recv_stats.total(), wire as u64);
        assert_eq!(
            twin_receiver.working().sorted_ids(),
            receiver.working().sorted_ids()
        );
    }

    /// Accepts `budget` bytes of writes, in chunks of the given sizes,
    /// then fails every write; reads come from a scripted peer.
    struct AcceptThenFail {
        inbound: std::io::Cursor<Vec<u8>>,
        budget: usize,
        chunks: Vec<usize>,
        calls: usize,
    }
    impl std::io::Read for AcceptThenFail {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.inbound.read(buf)
        }
    }
    impl std::io::Write for AcceptThenFail {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.budget == 0 {
                return Err(std::io::ErrorKind::BrokenPipe.into());
            }
            let chunk = self.chunks[self.calls % self.chunks.len()];
            self.calls += 1;
            let n = buf.len().min(self.budget).min(chunk);
            self.budget -= n;
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    proptest::proptest! {
        #[test]
        fn a_failed_batch_books_exactly_the_frames_the_stream_accepted(
            count in 0u64..40,
            on_boundary in proptest::arbitrary::any::<bool>(),
            boundary in 0usize..64,
            accepted in 0.0f64..1.1,
            chunks in proptest::collection::vec(1usize..300, 1..6),
        ) {
            // A scripted dialer: sketch, then a speculative request.
            let snapshot = working(&ids(80, 5));
            let inbound = [
                frame(&Message::Minwise(working(&ids(60, 6)).sketch().clone())),
                frame(&Message::SymbolRequest { count }),
            ];
            // The twin sender's two replying steps: its sketch, then the
            // stream and `End`.
            let mut twin = SenderMachine::new(snapshot.clone(), 3);
            twin.handle(SessionEvent::PeerConnected).expect("connect");
            let first = sent(twin.handle(SessionEvent::FrameReceived(inbound[0].clone())).expect("sketch"));
            let second = sent(twin.handle(SessionEvent::FrameReceived(inbound[1].clone())).expect("request"));
            let first_len: usize = first.iter().map(Bytes::len).sum();
            let total: usize = first_len + second.iter().map(Bytes::len).sum::<usize>();
            // Half the cases fail exactly on a frame boundary, where the
            // frame the failing write carried has no accepted byte.
            let mut boundaries = vec![0];
            for frame in first.iter().chain(&second) {
                boundaries.push(boundaries[boundaries.len() - 1] + frame.len());
            }
            let budget = if on_boundary {
                boundaries[boundary % boundaries.len()]
            } else {
                (total as f64 * accepted) as usize
            };

            // Expected: every inbound frame read before the failure, and
            // every outbound frame starting before byte `budget`.
            let mut expected = WireStats::default();
            expected.count(&inbound[0]);
            if budget >= first_len {
                expected.count(&inbound[1]);
            }
            let mut start = 0;
            for frame in first.iter().chain(&second) {
                if start < budget {
                    expected.count(frame);
                }
                start += frame.len();
            }

            let mut stream = AcceptThenFail {
                inbound: std::io::Cursor::new(inbound.concat()),
                budget,
                chunks,
                calls: 0,
            };
            let mut sender = SenderMachine::new(snapshot, 3);
            match drive_sender(&mut sender, &mut stream, FrameLimit::default()) {
                Ok(stats) => {
                    proptest::prop_assert!(budget >= total);
                    proptest::prop_assert_eq!(stats, expected);
                }
                Err(DriveError::Transport { error: FrameError::Io(_), stats }) => {
                    proptest::prop_assert!(budget < total);
                    proptest::prop_assert_eq!(stats, expected);
                }
                Err(other) => panic!("expected a transport failure, got {other:?}"),
            }
        }
    }

    #[test]
    fn peer_eof_mid_session_is_a_typed_error() {
        // A stream that accepts the opening sketch then reports EOF:
        // the driver must not report success for an unfinished session.
        struct DeadAfterWrite;
        impl std::io::Read for DeadAfterWrite {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Ok(0)
            }
        }
        impl std::io::Write for DeadAfterWrite {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let (mut receiver, mut sender, _) = machines(10);
        match drive_receiver(&mut receiver, &mut DeadAfterWrite, FrameLimit::default()) {
            Err(DriveError::PeerClosed { stats }) => {
                // The opening sketch frame was still booked.
                assert_eq!(stats.frames, 1);
                assert!(stats.control_bytes > 0);
            }
            other => panic!("expected PeerClosed, got {other:?}"),
        }
        assert!(!receiver.is_finished());
        // The sender side never even saw a first frame: zero stats.
        match drive_sender(&mut sender, &mut DeadAfterWrite, FrameLimit::default()) {
            Err(DriveError::PeerClosed { stats }) => assert_eq!(stats.total(), 0),
            other => panic!("expected PeerClosed, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frame_mid_session_is_transport_error() {
        // The peer dies three bytes into an eight-byte frame body.
        struct TruncatedFrame {
            data: std::io::Cursor<Vec<u8>>,
        }
        impl std::io::Read for TruncatedFrame {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                std::io::Read::read(&mut self.data, buf)
            }
        }
        impl std::io::Write for TruncatedFrame {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut wire = Vec::new();
        wire.extend_from_slice(&8u32.to_le_bytes());
        wire.extend_from_slice(&[0u8; 3]);
        let mut stream = TruncatedFrame {
            data: std::io::Cursor::new(wire),
        };
        let (mut receiver, _, _) = machines(10);
        match drive_receiver(&mut receiver, &mut stream, FrameLimit::default()) {
            Err(DriveError::Transport {
                error: FrameError::Truncated { needed: 5, got: 7 },
                stats,
            }) => {
                // The opening sketch went out before the cut: the error
                // keeps its bytes.
                assert_eq!(stats.frames, 1);
                assert!(stats.control_bytes > 0);
            }
            other => panic!("expected Transport(Truncated), got {other:?}"),
        }
    }

    #[test]
    fn read_timeout_mid_session_is_a_typed_error() {
        // A socket with a read timeout set surfaces WouldBlock/TimedOut;
        // the driver maps it to ReadTimeout with the partial counters.
        struct SilentPeer;
        impl std::io::Read for SilentPeer {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::from(std::io::ErrorKind::WouldBlock))
            }
        }
        impl std::io::Write for SilentPeer {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let (mut receiver, _, _) = machines(10);
        match drive_receiver(&mut receiver, &mut SilentPeer, FrameLimit::default()) {
            Err(DriveError::ReadTimeout { stats }) => assert_eq!(stats.frames, 1),
            other => panic!("expected ReadTimeout, got {other:?}"),
        }
    }

    #[test]
    fn write_deadline_surfaces_as_transient_transport_error() {
        // A socket whose *write* deadline fires: the opening sketch
        // cannot be sent. The driver must classify it as the transient
        // `FrameError::TimedOut`, not an opaque I/O failure, so retry
        // policies treat stalled writes like stalled reads.
        struct FullBuffer;
        impl std::io::Read for FullBuffer {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Ok(0)
            }
        }
        impl std::io::Write for FullBuffer {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::from(std::io::ErrorKind::WouldBlock))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let (mut receiver, _, _) = machines(10);
        match drive_receiver(&mut receiver, &mut FullBuffer, FrameLimit::default()) {
            Err(DriveError::Transport { error, .. }) => {
                assert!(matches!(error, FrameError::TimedOut));
                assert!(error.is_transient());
            }
            other => panic!("expected Transport(TimedOut), got {other:?}"),
        }
    }

    #[test]
    fn resumed_machine_advertises_prior_progress_and_never_double_counts() {
        // Run a session partway, cut it, resume with a fresh handshake
        // over the now-larger set: nothing decoded before the cut may be
        // gained again afterward.
        let (mut receiver, mut sender, fresh) = machines(1000);
        let mut pump = FramePump::new();
        let mut actions = Vec::new();
        pump.start(&mut receiver, &mut sender, &mut actions)
            .expect("start");
        // Pump only a handful of frames — the "connection" then dies.
        for _ in 0..12 {
            if pump
                .step(&mut receiver, &mut sender, &mut actions)
                .expect("step")
                == PumpStep::Idle
            {
                break;
            }
        }
        let first: std::collections::HashSet<u64> = actions
            .iter()
            .filter_map(|a| match a {
                SessionAction::SymbolDecoded(id) => Some(*id),
                _ => None,
            })
            .collect();
        let gained_before = receiver.gained();
        assert_eq!(first.len() as u64, gained_before);
        let held_at_cut = receiver.working().len();

        // Resume: re-handshake with a request for what is still missing,
        // against a fresh sender over the same inventory (the serving
        // daemon rebuilds its machine per connection too).
        let missing = 1000 - gained_before;
        let mut resumed =
            receiver.into_resumed(SessionConfig::new().with_request(missing).with_seed(99));
        assert_eq!(resumed.working().len(), held_at_cut);
        let sender_ids: Vec<u64> = {
            let mut v = ids(600, 1);
            v.extend(ids(250, 2));
            v
        };
        let mut sender2 = SenderMachine::new(working(&sender_ids), 8);
        let mut pump2 = FramePump::new();
        let actions2 = pump2.run(&mut resumed, &mut sender2).expect("resumed run");
        assert!(resumed.is_done() || resumed.was_rejected());
        let second: Vec<u64> = actions2
            .iter()
            .filter_map(|a| match a {
                SessionAction::SymbolDecoded(id) => Some(*id),
                _ => None,
            })
            .collect();
        // The resumed handshake summarized the pre-cut gains, so none of
        // them is ever re-decoded.
        for id in &second {
            assert!(
                !first.contains(id),
                "symbol {id} double-counted across resume"
            );
        }
        // Combined, the two half-sessions still deliver the transfer.
        assert!(
            gained_before + second.len() as u64 > (fresh * 9 / 10) as u64,
            "resume lost progress: {gained_before} + {}",
            second.len()
        );
        assert_eq!(
            resumed.working().len(),
            held_at_cut + second.len(),
            "working set growth must equal fresh decodes"
        );
    }
}
