//! The peer runtime: one listener, many sessions, one shared set.
//!
//! A [`Node`] is a process-local peer in a [`crate::plan::SwarmPlan`]:
//! it serves every inbound dial from a listener thread (completed peers
//! keep seeding — the listener never closes while the node lives),
//! fetches over its planned links with one thread per upstream peer,
//! and funnels every decoded symbol through a [`SharedWorkingSet`].
//! Addresses come from a [`Roster`] that speaks `icd-swarm`'s
//! [`SwarmEvent`] membership vocabulary, so the same Join/Leave/Rejoin
//! semantics the simulator's churn plans use drive a real deployment's
//! address book.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use icd_core::machine::{DriveError, WireStats};
use icd_core::{PolicyKnobs, SessionConfig, WorkingSet};
use icd_obs::{MetricsRegistry, SyncTraceHandle, TraceEvent};
use icd_overlay::{session_machine_seeds, session_payload};
use icd_swarm::{PeerId, SwarmEvent};
use icd_wire::message::FRAME_PREFIX_BYTES;
use icd_wire::Message;

use crate::connection::{fetch_session, serve_session, FetchError, Hello, SessionEpoch};
use crate::plan::{DistributionSpec, PlannedLink, SwarmPlan};
use crate::retry::{
    Dial, FetchLadder, FetchReport, LadderAction, LadderEvent, RetryPolicy, StallState,
};
use crate::shared::SharedWorkingSet;

/// Daemon-side fault injection: sever the first serve session from
/// each listed dialer after a fixed number of data frames. The cut is
/// deliberate and deterministic — the dialer observes a mid-frame
/// truncation exactly where the plan says — which is what lets chaos
/// tests assert byte-for-byte bounds on the recovery path.
#[derive(Debug, Clone, Default)]
pub struct ServeChaos {
    /// Dialer ids whose *first* session gets severed (subsequent
    /// sessions from the same dialer serve normally — that is the
    /// retry succeeding).
    pub sever_dialers: Vec<u32>,
    /// Data frames to serve before cutting the stream.
    pub frame_budget: u64,
}

/// How a node is launched.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// This peer's id in the plan (`0..spec.nodes`).
    pub id: PeerId,
    /// The swarm-wide distribution spec.
    pub spec: DistributionSpec,
    /// Listen address; use port 0 to let the OS pick.
    pub listen: String,
    /// Socket read timeout for both serve and fetch sessions. A dead
    /// peer then surfaces as [`DriveError::ReadTimeout`] instead of
    /// wedging its connection thread forever.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout. A stalled peer whose window never opens
    /// surfaces as a transient transport error instead of blocking the
    /// writer indefinitely.
    pub write_timeout: Option<Duration>,
    /// Redial discipline for transient fetch failures: peer closed,
    /// deadline fired, stream truncated mid-frame. Retries resume on a
    /// [`SessionEpoch::Live`] session advertising everything decoded so
    /// far, so no byte of prior progress is re-fetched.
    pub retry: RetryPolicy,
    /// Optional serve-side fault injection (chaos tests only).
    pub chaos: Option<ServeChaos>,
}

/// Former name of [`DaemonConfig`], kept for existing callers.
pub type NodeConfig = DaemonConfig;

impl DaemonConfig {
    /// Localhost config with an OS-assigned port, generous 30-second
    /// read/write deadlines, and the default retry policy.
    #[must_use]
    pub fn local(id: PeerId, spec: DistributionSpec) -> Self {
        Self {
            id,
            spec,
            listen: "127.0.0.1:0".to_string(),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            retry: RetryPolicy::default(),
            chaos: None,
        }
    }
}

/// The peer address book, driven by [`SwarmEvent`]s.
#[derive(Debug, Default, Clone)]
pub struct Roster {
    live: HashMap<PeerId, SocketAddr>,
    departed: HashMap<PeerId, SocketAddr>,
    next_join: PeerId,
}

impl Roster {
    /// An empty roster; [`Self::apply`]-joined peers get ids from
    /// `next_join` upward.
    #[must_use]
    pub fn new(next_join: PeerId) -> Self {
        Self {
            live: HashMap::new(),
            departed: HashMap::new(),
            next_join,
        }
    }

    /// Registers (or re-addresses) a live peer directly.
    pub fn set(&mut self, peer: PeerId, addr: SocketAddr) {
        self.live.insert(peer, addr);
        self.next_join = self.next_join.max(peer + 1);
    }

    /// Address of a live peer (`None` while departed or unknown).
    #[must_use]
    pub fn addr(&self, peer: PeerId) -> Option<SocketAddr> {
        self.live.get(&peer).copied()
    }

    /// Live peer count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no peers are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Applies one membership event. `addr` is required for `Join` (the
    /// newcomer's address) and optional for `Rejoin` (a returning peer
    /// may come back on a new address; otherwise its old one is
    /// restored). Returns the affected peer, or `None` when the event
    /// cannot apply (unknown peer, rejoin of someone never seen).
    pub fn apply(&mut self, event: SwarmEvent, addr: Option<SocketAddr>) -> Option<PeerId> {
        match event {
            SwarmEvent::Join => {
                let id = self.next_join;
                self.live.insert(id, addr?);
                self.next_join += 1;
                Some(id)
            }
            SwarmEvent::Leave(p) => {
                let addr = self.live.remove(&p)?;
                self.departed.insert(p, addr);
                Some(p)
            }
            SwarmEvent::Rejoin(p) => {
                let restored = addr.or_else(|| self.departed.remove(&p))?;
                self.departed.remove(&p);
                self.live.insert(p, restored);
                Some(p)
            }
            // Rewire is a connection-level event: the address book is
            // unchanged; the caller re-dials.
            SwarmEvent::Rewire(p) => self.live.contains_key(&p).then_some(p),
        }
    }
}

/// Barrier-frozen per-round session state.
///
/// `OverlayNet` freezes every endpoint's snapshot at `connect_session`
/// time, before any frame of the round moves; byte parity with the
/// simulator therefore requires the daemon to do the same. Each
/// [`Node::advance_round`] call is one such barrier: it clones the
/// shared working set once, and that clone is the round's snapshot on
/// both sides — the set every dialer of the round is served from and
/// the set this node's own fetches open with — just as the engine's
/// refreshed sender inventory and its receiver working set are one set.
#[derive(Debug)]
struct Rounds {
    /// Frozen snapshots, indexed by round.
    serve: Vec<WorkingSet>,
}

impl Rounds {
    /// The current round and, unless the node was already complete at
    /// its barrier (it then dials nobody), what its fetches open with:
    /// the barrier snapshot and a request for every symbol missing
    /// there.
    fn current_fetch(&self, universe: usize) -> (u32, Option<(WorkingSet, u64)>) {
        let round = self.serve.len() - 1;
        let barrier = &self.serve[round];
        let missing = universe.saturating_sub(barrier.len());
        (
            round as u32,
            (missing > 0).then(|| (barrier.clone(), missing as u64)),
        )
    }
}

/// Everything a serve thread needs, shared across all of them.
struct ServeCtx {
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    rounds: Arc<Mutex<Rounds>>,
    shared: Arc<SharedWorkingSet>,
    log: Mutex<Vec<(u32, WireStats)>>,
    /// Dialers whose next session gets severed (drained as they dial).
    chaos_pending: Mutex<Vec<u32>>,
    /// Data-frame budget for severed sessions.
    frame_budget: u64,
    /// Sessions that ended early (peer closed / timed out / truncated
    /// mid-frame / chaos-severed) but were absorbed, not fatal.
    degraded: AtomicU64,
}

/// A running peer: listener thread + shared working set.
pub struct Node {
    config: DaemonConfig,
    plan: SwarmPlan,
    shared: Arc<SharedWorkingSet>,
    rounds: Arc<Mutex<Rounds>>,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    serve_ctx: Arc<ServeCtx>,
    /// Whether the next round escalates to speculative transfers (see
    /// [`Self::stall_escalations`]).
    stall: Mutex<StallState>,
    /// Structured trace recorder. Records are stamped with the round
    /// number (never wall-clock time); fetch threads share it, so the
    /// interleaving of same-round records is scheduling-dependent —
    /// unlike the engine's traces, which are fully deterministic.
    trace: Option<SyncTraceHandle>,
    /// Metrics sink for the per-node session counters.
    metrics: Option<Arc<MetricsRegistry>>,
}

impl Node {
    /// Binds the listener, spawns the accept loop, and returns the
    /// running node. The node serves immediately; fetching is a
    /// separate, explicit step ([`Self::run_fetches`]).
    ///
    /// # Errors
    /// Socket bind/configuration failures.
    pub fn start(config: DaemonConfig) -> io::Result<Self> {
        let plan = SwarmPlan::new(config.spec);
        let share = &plan.shares[config.id];
        let payload = config.spec.payload;
        let initial_inventory = WorkingSet::from_symbols(share.iter().map(|&id| {
            icd_fountain::EncodedSymbol {
                id,
                payload: session_payload(id, payload),
            }
        }));
        let shared = Arc::new(SharedWorkingSet::new(
            initial_inventory.clone(),
            config.spec.universe,
        ));
        let rounds = Arc::new(Mutex::new(Rounds {
            serve: vec![initial_inventory],
        }));
        let listener = TcpListener::bind(&config.listen)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let serve_ctx = Arc::new(ServeCtx {
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
            rounds: rounds.clone(),
            shared: shared.clone(),
            log: Mutex::new(Vec::new()),
            chaos_pending: Mutex::new(
                config
                    .chaos
                    .as_ref()
                    .map(|c| c.sever_dialers.clone())
                    .unwrap_or_default(),
            ),
            frame_budget: config.chaos.as_ref().map_or(u64::MAX, |c| c.frame_budget),
            degraded: AtomicU64::new(0),
        });

        let accept_stop = stop.clone();
        let accept_ctx = serve_ctx.clone();
        let accept_thread = std::thread::spawn(move || {
            let mut sessions = ServeThreads::default();
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let ctx = accept_ctx.clone();
                sessions.spawn(move || serve_one(stream, &ctx));
            }
            sessions.join();
        });

        Ok(Self {
            config,
            plan,
            shared,
            rounds,
            local_addr,
            stop,
            accept_thread: Some(accept_thread),
            serve_ctx,
            stall: Mutex::new(StallState::default()),
            trace: None,
            metrics: None,
        })
    }

    /// Installs a structured trace recorder. Fetch rounds record
    /// per-session spans, redials after transient failures, and stall
    /// escalations, each stamped with the round number.
    pub fn set_trace(&mut self, trace: SyncTraceHandle) {
        self.trace = Some(trace);
    }

    /// Installs a metrics sink: fetch-session and retry-ladder counters
    /// accrue per round; [`Self::fill_metrics`] mirrors the serve-side
    /// totals on demand.
    pub fn set_metrics(&mut self, metrics: Arc<MetricsRegistry>) {
        self.metrics = Some(metrics);
    }

    /// Mirrors the node's cumulative health counters into the installed
    /// metrics sink (no-op without one): `node_degraded_sessions`,
    /// `node_stall_escalations`, and `node_round`.
    pub fn fill_metrics(&self) {
        if let Some(metrics) = &self.metrics {
            metrics
                .gauge("node_degraded_sessions")
                .set(self.degraded_sessions());
            metrics
                .gauge("node_stall_escalations")
                .set(self.stall_escalations());
            metrics
                .gauge("node_round")
                .set(u64::from(self.current_round()));
        }
    }

    /// The bound listen address (real port when the config said 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The node's shared working set.
    #[must_use]
    pub fn shared(&self) -> &Arc<SharedWorkingSet> {
        &self.shared
    }

    /// The expanded plan this node follows.
    #[must_use]
    pub fn plan(&self) -> &SwarmPlan {
        &self.plan
    }

    /// Per-dialer serve-side wire counters recorded so far.
    #[must_use]
    pub fn serve_stats(&self) -> Vec<(u32, WireStats)> {
        self.serve_ctx.log.lock().expect("serve log lock").clone()
    }

    /// Serve sessions that ended early (dialer hung up, deadline fired,
    /// stream truncated mid-frame, chaos-severed) but were absorbed —
    /// the daemon logged them and kept serving.
    #[must_use]
    pub fn degraded_sessions(&self) -> u64 {
        self.serve_ctx.degraded.load(Ordering::Relaxed)
    }

    /// Rounds this node ran as speculative escalations.
    ///
    /// A [`Self::run_fetches`] round that gained nothing while the node
    /// is still incomplete is stalled (`retry::StallState`): the *next*
    /// round dials speculative [`SessionEpoch::Live`] sessions, so no
    /// summary travels, the sender recodes over its whole set (§6's
    /// fallback) and symbols a digest's false positives withheld arrive
    /// XOR-combined with known ones. Bloom false positives can trip it
    /// without any fault; the exact goldens gain every round and never
    /// escalate, so their byte parity with the simulator is untouched.
    #[must_use]
    pub fn stall_escalations(&self) -> u64 {
        self.stall.lock().expect("stall lock").escalations()
    }

    /// The reconciliation round the node is currently in (0-based).
    #[must_use]
    pub fn current_round(&self) -> u32 {
        (self.rounds.lock().expect("rounds lock").serve.len() - 1) as u32
    }

    /// One round barrier: freezes one clone of the shared working set as
    /// the new round's snapshot on both sides — the set its dialers are
    /// served from and the set its own fetches open with (their request
    /// is what the snapshot misses). Returns the new round number.
    ///
    /// The harness calls this on *every* node before any node dials the
    /// next round — only then do both worlds agree on every endpoint's
    /// state, which is what makes per-round byte parity exact.
    pub fn advance_round(&self) -> u32 {
        let mut rounds = self.rounds.lock().expect("rounds lock");
        rounds.serve.push(self.shared.snapshot());
        (rounds.serve.len() - 1) as u32
    }

    /// Runs every planned fetch of this node concurrently — one thread
    /// per upstream peer — and returns the reports in plan order.
    /// Sessions construct their receiver machines exactly as
    /// `OverlayNet::connect_session` does: snapshot = a clone of the set
    /// frozen at the round barrier; request = symbols missing at the
    /// barrier; machine seed derived from the link's round seed. A node
    /// that was complete at the barrier dials nobody. Peers
    /// missing from `roster` report `"peer not in roster"` without
    /// dialing.
    ///
    /// If the *previous* call gained nothing while the node was still
    /// incomplete, this round escalates to speculative recovery dials —
    /// see [`Self::stall_escalations`].
    #[must_use]
    pub fn run_fetches(&self, roster: &Roster) -> Vec<FetchReport> {
        let (round, frozen) = self
            .rounds
            .lock()
            .expect("rounds lock")
            .current_fetch(self.config.spec.universe);
        let Some((snapshot, request)) = frozen else {
            return Vec::new();
        };
        let escalate = self.stall.lock().expect("stall lock").escalates();
        let reports: Vec<FetchReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .plan
                .fetches_of(self.config.id)
                .map(|link| {
                    let (barrier, addr) = (snapshot.clone(), roster.addr(link.from));
                    scope.spawn(move || {
                        self.fetch_one(link, round, escalate, barrier, request, addr)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fetch thread panicked"))
                .collect()
        });
        let gained: u64 = reports
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .map(|o| o.gained)
            .sum();
        let escalated = if reports.is_empty() {
            None
        } else {
            let mut stall = self.stall.lock().expect("stall lock");
            let escalated = stall.end_round(gained, self.shared.is_complete());
            if stall.escalates() && !escalate {
                eprintln!(
                    "icd-node: peer {} round {round} gained nothing while incomplete; \
                     escalating next round to speculative dials",
                    self.config.id
                );
            }
            escalated
        };
        if let Some(starved) = escalated {
            if let Some(trace) = &self.trace {
                trace.lock().expect("trace lock").push(
                    u64::from(round),
                    TraceEvent::StallEscalation {
                        peer: self.config.id as u64,
                        starved,
                    },
                );
            }
            if let Some(metrics) = &self.metrics {
                metrics.counter("node_stall_escalations").inc();
            }
        }
        // Session spans land after the joins, in plan order — the trace
        // is per-round reproducible even though the fetch threads
        // themselves finish in scheduling order.
        if let Some(trace) = &self.trace {
            let mut buf = trace.lock().expect("trace lock");
            for r in &reports {
                buf.push(
                    u64::from(round),
                    TraceEvent::SessionSpan {
                        from: r.from as u64,
                        to: self.config.id as u64,
                        round: u64::from(r.round),
                        retries: u64::from(r.retries),
                        ok: r.outcome.is_ok(),
                    },
                );
            }
        }
        if let Some(metrics) = &self.metrics {
            metrics
                .counter("node_fetch_sessions")
                .add(reports.len() as u64);
            metrics
                .counter("node_fetch_failures")
                .add(reports.iter().filter(|r| r.outcome.is_err()).count() as u64);
            metrics
                .counter("node_retries")
                .add(reports.iter().map(|r| u64::from(r.retries)).sum());
        }
        reports
    }

    /// Runs one link's round fetch: dials and sleeps what its
    /// [`FetchLadder`] says until the ladder finishes. The planned
    /// attempt opens with the barrier snapshot and request; every other
    /// dial resumes over the node's current set (everything decoded so
    /// far, including what a dead session delivered before it died).
    fn fetch_one(
        &self,
        link: &PlannedLink,
        round: u32,
        escalate: bool,
        mut barrier: WorkingSet,
        request: u64,
        addr: Option<SocketAddr>,
    ) -> FetchReport {
        let mut ladder = FetchLadder::new(self.config.retry, link, round, escalate);
        loop {
            let (snapshot, missing) = if ladder.resumes() {
                let held = self.shared.snapshot();
                let missing = self.config.spec.universe.saturating_sub(held.len());
                (held, missing as u64)
            } else {
                (std::mem::take(&mut barrier), request)
            };
            let mut action = ladder.handle(LadderEvent::Ready { missing });
            if let LadderAction::Dial(dial) = action {
                action = ladder.handle(self.dial_once(addr, &dial, snapshot));
            }
            match action {
                LadderAction::Dial(_) => unreachable!("an attempt's end never asks for a dial"),
                LadderAction::Backoff { attempt, delay } => {
                    if let Some(trace) = &self.trace {
                        trace.lock().expect("trace lock").push(
                            u64::from(round),
                            TraceEvent::Redial {
                                from: self.config.id as u64,
                                to: link.from as u64,
                                round: u64::from(round),
                                attempt: u64::from(attempt),
                            },
                        );
                    }
                    std::thread::sleep(delay);
                }
                LadderAction::Finish(report) => return report,
            }
        }
    }

    /// One dial + one session, reported as the attempt's end. A
    /// speculative dial advertises the receiver as not fine-grained
    /// capable, so policy plans a recoded transfer instead of building
    /// an approximate digest (the stall-escalation path).
    fn dial_once(
        &self,
        addr: Option<SocketAddr>,
        dial: &Dial,
        snapshot: WorkingSet,
    ) -> LadderEvent {
        let failed = |error, transient| LadderEvent::Failed {
            error,
            transient,
            stats: WireStats::default(),
            gained: 0,
        };
        let Some(addr) = addr else {
            return failed("peer not in roster", false);
        };
        let Ok(mut stream) = TcpStream::connect(addr) else {
            // Refused dials are transient: the peer may be mid-restart.
            return failed("connect failed", true);
        };
        let _ = stream.set_read_timeout(self.config.read_timeout);
        let _ = stream.set_write_timeout(self.config.write_timeout);
        let _ = stream.set_nodelay(true);
        let hello = Hello {
            dialer: self.config.id as u32,
            seed: dial.seed,
            epoch: dial.epoch,
        };
        if hello.write_to(&mut stream).is_err() {
            return failed("hello write failed", true);
        }
        let (receiver_seed, _) = session_machine_seeds(dial.seed);
        let mut config = SessionConfig::new()
            .with_request(dial.request)
            .with_seed(receiver_seed);
        if dial.speculative {
            config = config.with_knobs(PolicyKnobs {
                fine_grained_capable: false,
                ..PolicyKnobs::default()
            });
        }
        match fetch_session(&mut stream, snapshot, config, &self.shared) {
            Ok(outcome) => {
                // The serve books its counters before it closes the
                // stream, so waiting for that close makes a finished
                // fetch imply a booked serve.
                let _ = io::Read::read(&mut stream, &mut [0u8; 1]);
                LadderEvent::Succeeded(outcome)
            }
            Err(FetchError { error, gained }) => LadderEvent::Failed {
                error: match error {
                    DriveError::PeerClosed { .. } => "peer closed mid-session",
                    DriveError::ReadTimeout { .. } => "read timeout",
                    DriveError::Transport { .. } => "transport error",
                    DriveError::Machine { .. } => "machine error",
                },
                transient: error.is_transient(),
                stats: error.stats(),
                gained,
            },
        }
    }

    /// Stops the listener and joins every serve thread. Idempotent.
    pub fn stop(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The accept loop's serve threads. Each spawn first drops the handles
/// of finished sessions, so a long-lived daemon holds only live
/// sessions' handles; shutdown joins those.
#[derive(Default)]
struct ServeThreads(Vec<std::thread::JoinHandle<()>>);

impl ServeThreads {
    fn spawn(&mut self, serve: impl FnOnce() + Send + 'static) {
        self.0.retain(|t| !t.is_finished());
        self.0.push(std::thread::spawn(serve));
    }

    fn join(self) {
        for t in self.0 {
            let _ = t.join();
        }
    }
}

/// Serves one accepted connection: hello, snapshot per the requested
/// epoch, one sender session. Connection-level failures are absorbed as
/// degraded sessions — logged, counted, never fatal to the daemon.
fn serve_one(mut stream: TcpStream, ctx: &ServeCtx) {
    let _ = stream.set_read_timeout(ctx.read_timeout);
    let _ = stream.set_write_timeout(ctx.write_timeout);
    let _ = stream.set_nodelay(true);
    let Ok(hello) = Hello::read_from(&mut stream) else {
        return; // not a protocol peer (e.g. the stop wake-up)
    };
    let (_, sender_seed) = session_machine_seeds(hello.seed);
    let snapshot = match hello.epoch {
        // A dialer ahead of our barrier (only possible without the
        // harness's lockstep) gets the live set — completion still
        // works; exact parity is a barrier-mode guarantee.
        SessionEpoch::Round(r) => {
            let frozen = ctx
                .rounds
                .lock()
                .expect("rounds lock")
                .serve
                .get(r as usize)
                .cloned();
            frozen.unwrap_or_else(|| ctx.shared.snapshot())
        }
        SessionEpoch::Live => ctx.shared.snapshot(),
    };
    let sever = {
        let mut pending = ctx.chaos_pending.lock().expect("chaos lock");
        pending.iter().position(|&d| d == hello.dialer).map(|i| {
            pending.swap_remove(i);
            ctx.frame_budget
        })
    };
    let mut stream = SeverAfter::new(stream, sever.unwrap_or(u64::MAX));
    let stats = match serve_session(&mut stream, snapshot, sender_seed) {
        Ok(stats) => stats,
        Err(e) => {
            // The dialer hung up, a deadline fired, the stream was cut
            // mid-frame or chaos-severed, or a misbehaving dialer tripped
            // the machine: drop the session, keep serving everyone else.
            ctx.degraded.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "icd-node: serve session from dialer {} degraded: {e}",
                hello.dialer
            );
            e.stats()
        }
    };
    ctx.log
        .lock()
        .expect("serve log lock")
        .push((hello.dialer, stats));
}

/// [`ServeChaos`]'s cut as a stream adapter. The driver writes each
/// machine step's frames as one batch, so a write may carry many frames:
/// the adapter walks their length prefixes, forwards everything through
/// the end of the `budget`-th data frame, appends a dangling half-prefix
/// so the dialer sees a mid-frame cut ([`icd_wire::FrameError::Truncated`]),
/// not a tidy EOF, and returns that short count. Every later read and
/// write fails, so the serve ends there with exactly the frames through
/// the cut booked, wherever the cut falls in a batch.
///
/// Writes must start on frame boundaries, which holds because the adapter
/// accepts every byte it is given until the cut.
struct SeverAfter<S> {
    stream: S,
    budget: u64,
    data_frames: u64,
    severed: bool,
}

impl<S> SeverAfter<S> {
    fn new(stream: S, budget: u64) -> Self {
        Self {
            stream,
            budget,
            data_frames: 0,
            severed: false,
        }
    }

    fn check(&self) -> io::Result<()> {
        if self.severed {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "chaos: severed after the frame budget",
            ));
        }
        Ok(())
    }
}

impl<S: io::Read> io::Read for SeverAfter<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.check()?;
        self.stream.read(buf)
    }
}

impl<S: io::Write> io::Write for SeverAfter<S> {
    fn write(&mut self, batch: &[u8]) -> io::Result<usize> {
        self.check()?;
        let mut at = 0;
        while let Some(prefix) = batch.get(at..at + FRAME_PREFIX_BYTES) {
            let body = u32::from_le_bytes(prefix.try_into().expect("prefix bytes")) as usize;
            let data = batch
                .get(at + FRAME_PREFIX_BYTES)
                .is_some_and(|&tag| Message::is_data_tag(tag));
            at = batch.len().min(at + FRAME_PREFIX_BYTES + body);
            if data {
                self.data_frames += 1;
                if self.data_frames >= self.budget {
                    self.stream.write_all(&batch[..at])?;
                    let _ = self.stream.write_all(&[0x1C, 0xD0]);
                    let _ = self.stream.flush();
                    self.severed = true;
                    return Ok(at);
                }
            }
        }
        self.stream.write_all(batch)?;
        Ok(batch.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.check()?;
        self.stream.flush()
    }
}

/// Parses a roster token list like `0=127.0.0.1:4000 2=10.0.0.7:4001`
/// (whitespace- or comma-separated), as accepted by the binary's
/// `--roster` flag, the `ICD_NODE_ROSTER` environment variable, and the
/// harness `ROSTER` stdin command.
///
/// # Errors
/// Returns a description of the first malformed token.
pub fn parse_roster(text: &str, next_join: PeerId) -> Result<Roster, String> {
    let mut roster = Roster::new(next_join);
    for token in text.split([' ', ',', '\t']).filter(|t| !t.is_empty()) {
        let (id, addr) = token
            .split_once('=')
            .ok_or_else(|| format!("expected id=addr, got {token:?}"))?;
        let id: PeerId = id.parse().map_err(|_| format!("bad peer id {id:?}"))?;
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| format!("bad addr {addr:?}: {e}"))?
            .next()
            .ok_or_else(|| format!("unresolvable addr {addr:?}"))?;
        roster.set(id, addr);
    }
    Ok(roster)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().expect("addr")
    }

    #[test]
    fn roster_speaks_the_swarm_event_vocabulary() {
        let mut roster = parse_roster("0=127.0.0.1:4000, 1=127.0.0.1:4001", 2).expect("parse");
        assert_eq!(roster.len(), 2);
        assert_eq!(roster.addr(0), Some(addr(4000)));

        // Leave hides the peer; rejoin restores its old address.
        assert_eq!(roster.apply(SwarmEvent::Leave(1), None), Some(1));
        assert_eq!(roster.addr(1), None);
        assert_eq!(roster.apply(SwarmEvent::Rejoin(1), None), Some(1));
        assert_eq!(roster.addr(1), Some(addr(4001)));

        // Rejoin on a new address wins over the stored one.
        roster.apply(SwarmEvent::Leave(1), None);
        assert_eq!(roster.apply(SwarmEvent::Rejoin(1), Some(addr(5001))), Some(1));
        assert_eq!(roster.addr(1), Some(addr(5001)));

        // Join appends at next_join.
        assert_eq!(roster.apply(SwarmEvent::Join, Some(addr(6000))), Some(2));
        assert_eq!(roster.addr(2), Some(addr(6000)));
        // A join without an address cannot apply.
        assert_eq!(roster.apply(SwarmEvent::Join, None), None);

        // Rewire leaves the address book alone.
        assert_eq!(roster.apply(SwarmEvent::Rewire(0), None), Some(0));
        assert_eq!(roster.addr(0), Some(addr(4000)));
        assert_eq!(roster.apply(SwarmEvent::Rewire(99), None), None);

        // Unknown leaves/rejoins are rejected, not panics.
        assert_eq!(roster.apply(SwarmEvent::Leave(42), None), None);
        assert_eq!(roster.apply(SwarmEvent::Rejoin(42), None), None);
    }

    /// Distributes `spec` over in-process nodes, round by round as the
    /// harness does, checking after every barrier that each node froze
    /// exactly its shared set: the same ids, the sketch a rebuild from
    /// those ids computes, and the request for what it still misses.
    fn distribute_checking_barriers(spec: DistributionSpec) -> Vec<Node> {
        let nodes: Vec<Node> = (0..spec.nodes)
            .map(|i| Node::start(DaemonConfig::local(i, spec)).expect("start node"))
            .collect();
        let mut roster = Roster::new(spec.nodes);
        for (i, n) in nodes.iter().enumerate() {
            roster.set(i, n.local_addr());
        }
        for round in 0..crate::plan::MAX_ROUNDS {
            if nodes.iter().all(|n| n.shared().is_complete()) {
                break;
            }
            if round > 0 {
                for n in &nodes {
                    assert_eq!(n.advance_round(), round);
                }
            }
            for (i, n) in nodes.iter().enumerate() {
                let held = n.shared().sorted_ids();
                let rebuilt =
                    WorkingSet::from_symbols(held.iter().map(|&id| icd_fountain::EncodedSymbol {
                        id,
                        payload: session_payload(id, spec.payload),
                    }));
                let rounds = n.rounds.lock().expect("rounds lock");
                let frozen = &rounds.serve[round as usize];
                assert_eq!(frozen.sorted_ids(), held, "node {i} round {round} ids");
                assert_eq!(
                    frozen.sketch(),
                    rebuilt.sketch(),
                    "node {i} round {round} sketch"
                );
                let (current, fetch) = rounds.current_fetch(spec.universe);
                assert_eq!(current, round);
                let expected = (held.len() < spec.universe)
                    .then(|| (held.clone(), (spec.universe - held.len()) as u64));
                assert_eq!(
                    fetch.map(|(barrier, request)| (barrier.sorted_ids(), request)),
                    expected,
                    "node {i} round {round} fetch"
                );
            }
            for n in &nodes {
                for report in n.run_fetches(&roster) {
                    assert!(
                        report.outcome.is_ok(),
                        "round {round}: {:?}",
                        report.outcome
                    );
                }
            }
        }
        nodes
    }

    fn daemon_spec(seed: u64) -> DistributionSpec {
        format!("seed={seed},nodes=6,seeders=1,universe=100,share=35,payload=64,topo=ring0")
            .parse()
            .expect("valid spec")
    }

    #[test]
    fn round_snapshots_are_the_barrier_sets() {
        let nodes = distribute_checking_barriers(daemon_spec(11));
        assert!(nodes[0].current_round() >= 2, "several barriers passed");
    }

    #[test]
    fn leechers_hold_exactly_the_bytes_the_seeder_derived() {
        // Bytes in equal bytes out: round snapshots now serve decoded
        // payloads, so every symbol a leecher holds — reconciled or
        // recovered from recoded XORs during a stall escalation — must
        // carry the payload the id derives at the source.
        let mut escalated = false;
        for seed in [0, 11] {
            let spec = daemon_spec(seed);
            let nodes = distribute_checking_barriers(spec);
            escalated |= nodes.iter().any(|n| n.stall_escalations() > 0);
            for (i, n) in nodes.iter().enumerate() {
                assert!(n.shared().is_complete(), "node {i} incomplete");
                let held = n.shared().snapshot();
                for id in held.sorted_ids() {
                    assert_eq!(
                        held.payload(id),
                        Some(&session_payload(id, spec.payload)),
                        "node {i} symbol {id}"
                    );
                }
            }
        }
        assert!(escalated, "one spec finishes through recoded symbols");
    }

    #[test]
    fn accept_loop_holds_only_live_session_handles() {
        let mut sessions = ServeThreads::default();
        for _ in 0..64 {
            sessions.spawn(|| {});
            // The spawn dropped every finished session's handle.
            assert_eq!(sessions.0.len(), 1);
            while !sessions.0.iter().all(std::thread::JoinHandle::is_finished) {
                std::thread::yield_now();
            }
        }
        sessions.join();
    }

    #[test]
    fn sever_cuts_inside_a_batched_write_at_the_budget_frame() {
        let frame = |msg: &Message| {
            let mut out = Vec::new();
            icd_wire::write_frame(&mut out, msg).expect("frame");
            out
        };
        let data = |id: u64| {
            frame(&Message::EncodedSymbol {
                id,
                payload: bytes::Bytes::from(vec![id as u8; 9]),
            })
        };
        let first = [
            frame(&Message::SymbolRequest { count: 4 }),
            data(1),
            data(2),
        ]
        .concat();
        let second = [data(3), data(4), frame(&Message::End { sent: 4 })].concat();
        let mut sever = SeverAfter::new(io::Cursor::new(Vec::new()), 3);
        // A batch that ends before the budget passes whole.
        assert_eq!(
            io::Write::write(&mut sever, &first).expect("batch"),
            first.len()
        );
        // The third data frame lands mid-batch: the write forwards
        // through its end, then the dangling half-prefix, and reports
        // only the frame bytes.
        let cut = data(3).len();
        assert_eq!(io::Write::write(&mut sever, &second).expect("cut"), cut);
        let wire = [&first[..], &second[..cut], &[0x1C, 0xD0]].concat();
        assert_eq!(sever.stream.get_ref(), &wire);
        // Every later write and read fails, and nothing more is sent.
        assert!(io::Write::write(&mut sever, &second[cut..]).is_err());
        assert!(io::Read::read(&mut sever, &mut [0u8; 8]).is_err());
        assert_eq!(sever.stream.get_ref(), &wire);
        // The dialer reads every frame through the cut, then a typed
        // truncation two bytes into the next prefix.
        let mut reader = icd_wire::FrameReader::new(icd_wire::FrameLimit::default());
        let mut dialer = io::Cursor::new(wire.clone());
        let mut frames = Vec::new();
        let end = loop {
            match reader.next_frame(&mut dialer) {
                Ok(frame) => frames.extend_from_slice(&frame),
                Err(e) => break e,
            }
        };
        assert_eq!(frames, wire[..wire.len() - 2]);
        assert!(matches!(
            end,
            icd_wire::FrameError::Truncated { needed: 2, got: 2 }
        ));
    }

    #[test]
    fn roster_parse_rejects_malformed_tokens() {
        assert!(parse_roster("0:127.0.0.1:4000", 1).is_err());
        assert!(parse_roster("x=127.0.0.1:4000", 1).is_err());
        assert!(parse_roster("0=not-an-addr", 1).is_err());
    }
}
