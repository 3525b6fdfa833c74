//! Per-connection drivers: one dialing (fetch) side, one serving side.
//!
//! A connection is a hello preamble followed by one §3 reconciliation
//! session pumped by the blocking drivers from `icd_core::machine`
//! (`drive_receiver_with` dialing, `drive_sender` serving) — the same
//! code path the in-process tests exercise, now over a real socket. A
//! session that dies early surfaces as a [`DriveError`] carrying the
//! counters of the frames that crossed before it, on either side. The
//! hello is the *only* traffic the session machines do not
//! emit; it is deliberately excluded from [`WireStats`] so a daemon's
//! per-link counters remain byte-identical to the simulator's session
//! links, which have no connection-establishment phase.
//!
//! The dialer is the **receiver** (it downloads), the listener the
//! **sender** — the same orientation as `OverlayNet::connect_session`'s
//! `from → to` (listener = `from`). The hello carries the link seed, so
//! both endpoints derive their machine seeds from the one value via
//! [`icd_overlay::session_machine_seeds`], exactly like the engine.

use std::io::{Read, Write};

use icd_core::machine::{drive_receiver_with, drive_sender, DriveError, WireStats};
use icd_core::{ReceiverMachine, SenderMachine, SessionAction, SessionConfig, WorkingSet};
use icd_fountain::EncodedSymbol;
use icd_wire::FrameLimit;

use crate::shared::SharedWorkingSet;

/// Hello preamble magic.
const MAGIC: [u8; 4] = *b"ICDN";
/// Hello preamble protocol version.
const VERSION: u8 = 1;
/// Encoded hello length: magic + version + epoch + dialer + seed.
pub const HELLO_BYTES: usize = 4 + 1 + 1 + 4 + 8;

/// Wire byte marking a [`SessionEpoch::Live`] hello.
const LIVE_EPOCH: u8 = 0xFF;

/// Which working-set snapshot the serving side should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEpoch {
    /// Serve the snapshot frozen at reconciliation-round barrier `r` —
    /// the sessions a [`crate::plan::SwarmPlan`] schedules, where byte
    /// parity with the simulator holds because `OverlayNet` freezes all
    /// inventories at connect time before any transfer runs. Round 0 is
    /// the node's initial share. Values `0xF0..` are reserved on the
    /// wire; plans never get near them ([`crate::plan::MAX_ROUNDS`]).
    Round(u8),
    /// Serve the node's *current* shared working set — what a rejoining
    /// or late-dialing peer wants (the engine's refresh-on-connect).
    /// No parity guarantee: the snapshot races in-flight ingestion.
    Live,
}

impl SessionEpoch {
    fn encode(self) -> u8 {
        match self {
            Self::Round(r) => {
                debug_assert!(r < 0xF0, "reserved epoch byte");
                r
            }
            Self::Live => LIVE_EPOCH,
        }
    }

    fn decode(byte: u8) -> Result<Self, HelloError> {
        match byte {
            0x00..=0xEF => Ok(Self::Round(byte)),
            LIVE_EPOCH => Ok(Self::Live),
            reserved => Err(HelloError::BadEpoch(reserved)),
        }
    }
}

/// The fixed-size preamble a dialer sends before the first frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Dialing peer's roster id.
    pub dialer: u32,
    /// Link seed; both machine seeds derive from it.
    pub seed: u64,
    /// Snapshot discipline requested from the server.
    pub epoch: SessionEpoch,
}

/// Errors from the hello exchange.
#[derive(Debug)]
pub enum HelloError {
    /// Underlying I/O failed (including EOF inside the preamble).
    Io(std::io::Error),
    /// The first four bytes were not the protocol magic.
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Reserved epoch byte (`0xF0..=0xFE`).
    BadEpoch(u8),
}

impl std::fmt::Display for HelloError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "hello i/o: {e}"),
            Self::BadMagic(m) => write!(f, "hello magic mismatch: {m:02x?}"),
            Self::BadVersion(v) => write!(f, "unsupported hello version {v}"),
            Self::BadEpoch(e) => write!(f, "unknown session epoch {e}"),
        }
    }
}

impl std::error::Error for HelloError {}

impl From<std::io::Error> for HelloError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl Hello {
    /// Writes the preamble.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> Result<(), HelloError> {
        let mut buf = [0u8; HELLO_BYTES];
        buf[..4].copy_from_slice(&MAGIC);
        buf[4] = VERSION;
        buf[5] = self.epoch.encode();
        buf[6..10].copy_from_slice(&self.dialer.to_le_bytes());
        buf[10..18].copy_from_slice(&self.seed.to_le_bytes());
        writer.write_all(&buf)?;
        Ok(())
    }

    /// Reads and validates a preamble.
    ///
    /// # Errors
    /// I/O failure, wrong magic, unsupported version, unknown epoch.
    pub fn read_from<R: Read>(reader: &mut R) -> Result<Self, HelloError> {
        let mut buf = [0u8; HELLO_BYTES];
        reader.read_exact(&mut buf)?;
        let magic: [u8; 4] = buf[..4].try_into().expect("fixed slice");
        if magic != MAGIC {
            return Err(HelloError::BadMagic(magic));
        }
        if buf[4] != VERSION {
            return Err(HelloError::BadVersion(buf[4]));
        }
        let epoch = SessionEpoch::decode(buf[5])?;
        Ok(Self {
            dialer: u32::from_le_bytes(buf[6..10].try_into().expect("fixed slice")),
            seed: u64::from_le_bytes(buf[10..18].try_into().expect("fixed slice")),
            epoch,
        })
    }
}

/// What one fetch session accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchOutcome {
    /// Wire-exact counters for every frame either direction (hello
    /// excluded) — the number diffed against the simulator's link.
    pub stats: WireStats,
    /// Symbols this session decoded that were *new to the node* (after
    /// shared-set dedup, so summing over sessions never double-counts).
    pub gained: u64,
    /// Whether the sender's sketch showed nothing worth transferring
    /// and the session ended in a rejection.
    pub rejected: bool,
}

/// A failed fetch session, with the progress it made before dying.
///
/// A session cut mid-stream has usually already decoded symbols into
/// the shared set; dropping that count would make a recovering node's
/// accumulated gains disagree with its distinct-symbol growth. The
/// error therefore carries the partial gains alongside the transport
/// failure, and retry loops fold both into their running totals.
#[derive(Debug)]
pub struct FetchError {
    /// The transport or machine failure that ended the session.
    pub error: DriveError,
    /// Symbols the dead session decoded that were new to the node
    /// (shared-set deduped, same semantics as [`FetchOutcome::gained`]).
    pub gained: u64,
}

impl std::fmt::Display for FetchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} after gaining {}", self.error, self.gained)
    }
}

impl std::error::Error for FetchError {}

/// Drives the dialing (receiver) side of one session: the machine is
/// constructed from `snapshot` and `config`, and every decoded symbol
/// is pushed into `shared` as it lands, so the node's other sessions
/// see progress mid-flight.
///
/// The caller sends the [`Hello`] first and owns socket configuration
/// (read timeouts make a dead peer surface as
/// [`DriveError::ReadTimeout`] instead of wedging the thread).
///
/// # Errors
/// Any [`DriveError`] from the underlying driver, wrapped with the
/// partial gains the session banked before it died.
pub fn fetch_session<S: Read + Write>(
    stream: &mut S,
    snapshot: WorkingSet,
    config: SessionConfig,
    shared: &SharedWorkingSet,
) -> Result<FetchOutcome, FetchError> {
    let mut machine = ReceiverMachine::new(snapshot, config);
    let mut gained = 0u64;
    let driven = drive_receiver_with(
        &mut machine,
        stream,
        FrameLimit::default(),
        |action, m| {
            if let SessionAction::SymbolDecoded(id) = action {
                let payload = m
                    .working()
                    .payload(*id)
                    .expect("decoded symbol is in the machine's working set")
                    .clone();
                if shared.ingest(EncodedSymbol { id: *id, payload }) {
                    gained += 1;
                }
            }
        },
    );
    match driven {
        Ok(stats) => Ok(FetchOutcome {
            stats,
            gained,
            rejected: machine.was_rejected(),
        }),
        Err(error) => Err(FetchError { error, gained }),
    }
}

/// Drives the serving (sender) side of one session over `snapshot`,
/// with the machine RNG seeded `sender_seed` (derive it from the
/// hello's link seed via [`icd_overlay::session_machine_seeds`]): core's
/// [`drive_sender`] under the default frame limit, so a daemon's serve
/// counters are the ones every other driver books.
///
/// # Errors
/// Any [`DriveError`] that ended the session early — the dialer hung
/// up, a deadline fired, the stream truncated mid-frame, a misbehaving
/// dialer tripped the machine — carrying the counters of the frames
/// that crossed before it. A serving daemon logs it and moves on.
pub fn serve_session<S: Read + Write>(
    stream: &mut S,
    snapshot: WorkingSet,
    sender_seed: u64,
) -> Result<WireStats, DriveError> {
    drive_sender(
        &mut SenderMachine::new(snapshot, sender_seed),
        stream,
        FrameLimit::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use icd_wire::Message;

    #[test]
    fn hello_round_trips() {
        for epoch in [
            SessionEpoch::Round(0),
            SessionEpoch::Round(3),
            SessionEpoch::Live,
        ] {
            let hello = Hello {
                dialer: 42,
                seed: 0xDEAD_BEEF_0BAD_F00D,
                epoch,
            };
            let mut buf = Vec::new();
            hello.write_to(&mut buf).expect("write");
            assert_eq!(buf.len(), HELLO_BYTES);
            let back = Hello::read_from(&mut buf.as_slice()).expect("read");
            assert_eq!(back, hello);
        }
    }

    #[test]
    fn hello_rejects_garbage() {
        let mut good = Vec::new();
        Hello {
            dialer: 1,
            seed: 2,
            epoch: SessionEpoch::Round(0),
        }
        .write_to(&mut good)
        .expect("write");

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Hello::read_from(&mut bad_magic.as_slice()),
            Err(HelloError::BadMagic(_))
        ));

        let mut bad_version = good.clone();
        bad_version[4] = 9;
        assert!(matches!(
            Hello::read_from(&mut bad_version.as_slice()),
            Err(HelloError::BadVersion(9))
        ));

        let mut bad_epoch = good.clone();
        bad_epoch[5] = 0xF7;
        assert!(matches!(
            Hello::read_from(&mut bad_epoch.as_slice()),
            Err(HelloError::BadEpoch(0xF7))
        ));

        assert!(matches!(
            Hello::read_from(&mut &good[..10]),
            Err(HelloError::Io(_))
        ));
    }

    /// An in-memory duplex: the dialer's frames are scripted up front,
    /// the serving side's replies collect in `written`.
    struct ScriptedDialer {
        inbound: std::io::Cursor<Vec<u8>>,
        written: Vec<u8>,
    }

    impl Read for ScriptedDialer {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.inbound.read(buf)
        }
    }

    impl Write for ScriptedDialer {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn serve_session_refuses_an_unbounded_symbol_request() {
        // A hostile dialer sends a matching-family sketch, skips the
        // summary, and asks for u64::MAX speculative symbols. The serve
        // must fail with a typed protocol error (which the daemon counts
        // as a degraded session) after writing only its own sketch,
        // instead of materialising an unbounded recoded stream.
        let snapshot = WorkingSet::from_symbols((0..64u64).map(|id| EncodedSymbol {
            id,
            payload: icd_overlay::session_payload(id, 16),
        }));
        let sketch = Message::Minwise(snapshot.sketch().clone());
        let mut inbound = Vec::new();
        for msg in [&sketch, &Message::SymbolRequest { count: u64::MAX }] {
            icd_wire::write_frame(&mut inbound, msg).expect("script frame");
        }
        let inbound_bytes = inbound.len() as u64;
        let mut dialer = ScriptedDialer {
            inbound: std::io::Cursor::new(inbound),
            written: Vec::new(),
        };
        let served = serve_session(&mut dialer, snapshot, 9);
        assert!(
            matches!(
                served,
                Err(DriveError::Machine {
                    error: icd_core::MachineError::Session(
                        icd_core::SessionError::RequestTooLarge { count: u64::MAX }
                    ),
                    ..
                })
            ),
            "got {served:?}"
        );
        assert_eq!(dialer.written.len(), sketch.frame_len());
        // The error books every frame that crossed: the sketch written
        // and both scripted frames read.
        let stats = served.expect_err("refused").stats();
        assert_eq!(stats.frames, 3);
        assert_eq!(stats.total(), inbound_bytes + sketch.frame_len() as u64);
    }
}
