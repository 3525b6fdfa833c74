//! Length-prefixed framing over byte streams.
//!
//! A frame is a u32 little-endian length followed by that many bytes of
//! encoded [`crate::Message`]. The reader enforces a caller-chosen
//! [`FrameLimit`] so a corrupt or hostile peer cannot make us allocate
//! unbounded memory — the usual first mistake of hand-rolled protocols.
//!
//! Two readers share one error taxonomy ([`FrameError`]): [`read_frame`]
//! reads exactly one frame and decodes it, while a [`FrameReader`] owns
//! a reusable 16 KiB buffer, reads the stream in chunks and slices raw
//! frames out of it — the session drivers' path, where a burst of symbol
//! frames costs one `read`. On the way out, [`write_frame_buf`] frames a
//! message into a caller-owned buffer; a driver concatenates a whole
//! machine step's frames and writes them at once.
//!
//! Everything here works over any `std::io::Read`/`Write`, so the same
//! code drives the in-memory tests and the daemon's real sockets.

use std::io::{Read, Write};

use crate::message::{Message, WireError};

/// Upper bound on accepted frame sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameLimit {
    /// Maximum frame body length in bytes.
    pub max_bytes: u32,
}

impl Default for FrameLimit {
    /// 16 MiB: generously above any summary this workspace produces
    /// (a 1-GB file's ART summary is ~10 KB) while still bounding a
    /// hostile length field.
    fn default() -> Self {
        Self {
            max_bytes: 16 * 1024 * 1024,
        }
    }
}

/// Errors from the framing layer.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying I/O failed.
    Io(std::io::Error),
    /// Frame length exceeded the limit.
    TooLarge {
        /// Claimed body length.
        claimed: u32,
        /// The configured limit.
        limit: u32,
    },
    /// Frame body failed to decode.
    Wire(WireError),
    /// The stream ended cleanly between frames.
    Closed,
    /// The stream ended *inside* a frame: the peer promised `needed`
    /// more bytes (header or body) and delivered only `got` before EOF.
    /// Distinct from [`FrameError::Closed`] so a driver can tell a
    /// normal shutdown from a truncated transfer.
    Truncated {
        /// Bytes the current frame still required.
        needed: usize,
        /// Bytes actually received before the stream ended.
        got: usize,
    },
    /// A configured read timeout elapsed mid-read. The stream may hold a
    /// partial frame and must not be reused for framed traffic.
    TimedOut,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::TooLarge { claimed, limit } => {
                write!(f, "frame of {claimed} bytes exceeds limit {limit}")
            }
            Self::Wire(e) => write!(f, "frame decode failed: {e}"),
            Self::Closed => write!(f, "stream closed"),
            Self::Truncated { needed, got } => {
                write!(f, "stream ended inside a frame: got {got} of {} bytes", needed + got)
            }
            Self::TimedOut => write!(f, "read timeout elapsed mid-frame"),
        }
    }
}

impl FrameError {
    /// Whether a retry over a *fresh* stream could plausibly succeed.
    ///
    /// Connection-level failures — the peer closed, the stream died
    /// mid-frame, a read/write deadline fired, the OS surfaced an I/O
    /// error — say nothing about the protocol state on either side, so
    /// a dialer with a retry budget should redial. Protocol-level
    /// failures ([`FrameError::TooLarge`], [`FrameError::Wire`]) mean
    /// the *bytes themselves* are wrong; redialing the same peer buys
    /// nothing.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        match self {
            Self::Io(_) | Self::Closed | Self::Truncated { .. } | Self::TimedOut => true,
            Self::TooLarge { .. } | Self::Wire(_) => false,
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            Self::TimedOut
        } else {
            Self::Io(e)
        }
    }
}

/// Writes one message as a frame.
pub fn write_frame<W: Write>(writer: &mut W, msg: &Message) -> Result<(), FrameError> {
    let mut scratch = Vec::new();
    write_frame_buf(writer, msg, &mut scratch)
}

/// [`write_frame`] through a caller-owned scratch buffer: the length
/// prefix and body are assembled in `scratch` (cleared first) and issued
/// as a single write. A session pumping many symbols reuses one buffer
/// for the whole stream instead of allocating per frame.
pub fn write_frame_buf<W: Write>(
    writer: &mut W,
    msg: &Message,
    scratch: &mut Vec<u8>,
) -> Result<(), FrameError> {
    scratch.clear();
    scratch.extend_from_slice(&[0u8; 4]);
    msg.encode_into(scratch);
    let body_len = scratch.len() - 4;
    let len = u32::try_from(body_len).map_err(|_| FrameError::TooLarge {
        claimed: u32::MAX,
        limit: u32::MAX,
    })?;
    scratch[..4].copy_from_slice(&len.to_le_bytes());
    writer.write_all(scratch)?;
    Ok(())
}

/// Bytes a [`FrameReader`] asks the stream for at once: one loopback
/// `recv` then carries a whole burst of symbol frames.
const READ_CHUNK: usize = 16 * 1024;

/// Reads from `reader` into `buf[*filled..]` until at least `want` bytes
/// are filled. `buf` starts at the current frame's first prefix byte, so
/// `*filled` counts the frame bytes received so far: EOF before the
/// first of them is [`FrameError::Closed`] (normal shutdown between
/// frames), EOF after one or more is [`FrameError::Truncated`]. This is
/// the one place the framing layer classifies a short stream; a read
/// deadline surfaces as [`FrameError::TimedOut`] through
/// `From<io::Error>`.
fn fill<R: Read>(
    reader: &mut R,
    buf: &mut [u8],
    filled: &mut usize,
    want: usize,
) -> Result<(), FrameError> {
    while *filled < want {
        match reader.read(&mut buf[*filled..])? {
            0 if *filled == 0 => return Err(FrameError::Closed),
            0 => {
                return Err(FrameError::Truncated {
                    needed: want - *filled,
                    got: *filled,
                })
            }
            n => *filled += n,
        }
    }
    Ok(())
}

/// The whole framed length (prefix included) a length prefix announces,
/// or [`FrameError::TooLarge`] — checked before any body buffer exists.
fn framed_len(prefix: &[u8], limit: FrameLimit) -> Result<usize, FrameError> {
    let len = u32::from_le_bytes(prefix[..4].try_into().expect("four prefix bytes"));
    if len > limit.max_bytes {
        return Err(FrameError::TooLarge {
            claimed: len,
            limit: limit.max_bytes,
        });
    }
    Ok(4 + len as usize)
}

/// A buffered frame reader for one session's stream: it reads in chunks
/// of up to 16 KiB into a buffer it reuses and slices frames out of it,
/// so a burst of small frames costs one `read`, not two per frame.
///
/// Frames come back raw — length prefix *and* body — as shared buffers,
/// without decoding. Sans-I/O drivers hand these exact wire bytes to a
/// session machine (which decodes with [`Message::decode_from`] as a
/// view of the same buffer) while accounting the true framed length. A
/// frame larger than the buffer gets an allocation of its own, so the
/// reader's footprint stays one chunk.
///
/// The errors are [`read_frame`]'s: [`FrameError::Closed`] on EOF at a
/// frame boundary, [`FrameError::Truncated`] counted from the frame's
/// first prefix byte when the stream dies inside a frame,
/// [`FrameError::TooLarge`] before any body buffer grows, and
/// [`FrameError::TimedOut`] when a read deadline fires (the stream must
/// then be torn down, not retried).
///
/// The reader may consume bytes past the frame it returns, so once one
/// reads a stream, every later frame of that stream must come through
/// it.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// First buffered byte not yet returned.
    start: usize,
    /// One past the last buffered byte.
    end: usize,
    limit: FrameLimit,
}

impl FrameReader {
    /// An empty reader enforcing `limit` on every frame.
    #[must_use]
    pub fn new(limit: FrameLimit) -> Self {
        Self {
            buf: vec![0; READ_CHUNK],
            start: 0,
            end: 0,
            limit,
        }
    }

    /// Reads the next frame from `reader` (see the type docs for the
    /// error taxonomy).
    pub fn next_frame<R: Read>(&mut self, reader: &mut R) -> Result<bytes::Bytes, FrameError> {
        self.fill_to(reader, 4)?;
        let total = framed_len(&self.buf[self.start..self.end], self.limit)?;
        if total > self.buf.len() {
            let mut frame = vec![0u8; total];
            let mut filled = self.end - self.start;
            frame[..filled].copy_from_slice(&self.buf[self.start..self.end]);
            (self.start, self.end) = (0, 0);
            fill(reader, &mut frame, &mut filled, total)?;
            return Ok(bytes::Bytes::from(frame));
        }
        self.fill_to(reader, total)?;
        let frame = bytes::Bytes::copy_from_slice(&self.buf[self.start..self.start + total]);
        self.start += total;
        Ok(frame)
    }

    /// Buffers at least `want` bytes of the current frame, reading from
    /// the front of the buffer when it holds nothing else and first
    /// moving the frame there when it would not fit.
    fn fill_to<R: Read>(&mut self, reader: &mut R, want: usize) -> Result<(), FrameError> {
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        } else if self.start + want > self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
        }
        let mut filled = self.end - self.start;
        let result = fill(reader, &mut self.buf[self.start..], &mut filled, want);
        self.end = self.start + filled;
        result
    }
}

/// Reads one frame and decodes it, reading exactly the frame's bytes
/// and nothing past them. The errors are [`FrameReader`]'s.
pub fn read_frame<R: Read>(reader: &mut R, limit: FrameLimit) -> Result<Message, FrameError> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    fill(reader, &mut prefix, &mut filled, 4)?;
    let total = framed_len(&prefix, limit)?;
    let mut frame = vec![0u8; total];
    frame[..4].copy_from_slice(&prefix);
    fill(reader, &mut frame, &mut filled, total)?;
    // Hand the body over as a shared buffer so data-plane payloads
    // decode as views of it — the read is the frame's only copy.
    Message::decode_from(&bytes::Bytes::from(frame).slice(4..)).map_err(FrameError::Wire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_multiple_frames() {
        let msgs = vec![
            Message::SymbolRequest { count: 9 },
            Message::EncodedSymbol {
                id: 7,
                payload: bytes::Bytes::from(vec![1, 2, 3]),
            },
            Message::RecodedSymbol {
                components: vec![4, 5],
                payload: bytes::Bytes::from(vec![6; 10]),
            },
        ];
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        for m in &msgs {
            write_frame_buf(&mut buf, m, &mut scratch).expect("write");
        }
        let mut cursor = Cursor::new(buf);
        for m in &msgs {
            let got = read_frame(&mut cursor, FrameLimit::default()).expect("read");
            assert_eq!(&got, m);
        }
        // Clean EOF after the last frame.
        assert!(matches!(
            read_frame(&mut cursor, FrameLimit::default()),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn oversized_frame_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        let mut cursor = Cursor::new(buf);
        match read_frame(&mut cursor, FrameLimit { max_bytes: 1024 }) {
            Err(FrameError::TooLarge { claimed, limit }) => {
                assert_eq!(claimed, u32::MAX);
                assert_eq!(limit, 1024);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_header_is_typed() {
        let mut cursor = Cursor::new(vec![1u8, 0]);
        match read_frame(&mut cursor, FrameLimit::default()) {
            Err(FrameError::Truncated { needed, got }) => {
                assert_eq!(needed, 2);
                assert_eq!(got, 2);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn truncated_body_is_typed() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&100u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 10]); // 90 bytes short
        let mut cursor = Cursor::new(buf);
        match read_frame(&mut cursor, FrameLimit::default()) {
            Err(FrameError::Truncated { needed, got }) => {
                assert_eq!(needed, 90);
                assert_eq!(got, 4 + 10);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn frame_reader_reports_truncation_too() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 3]);
        let mut cursor = Cursor::new(buf);
        assert!(matches!(
            FrameReader::new(FrameLimit::default()).next_frame(&mut cursor),
            Err(FrameError::Truncated { needed: 5, got: 7 })
        ));
    }

    #[test]
    fn transience_splits_connection_from_protocol_failures() {
        assert!(FrameError::Closed.is_transient());
        assert!(FrameError::TimedOut.is_transient());
        assert!(FrameError::Truncated { needed: 3, got: 1 }.is_transient());
        assert!(FrameError::Io(std::io::Error::other("reset")).is_transient());
        assert!(!FrameError::TooLarge { claimed: 9, limit: 1 }.is_transient());
        assert!(!FrameError::Wire(WireError::BadTag(0xEE)).is_transient());
    }

    #[test]
    fn garbage_body_is_wire_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(0xEE); // bad tag
        let mut cursor = Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor, FrameLimit::default()),
            Err(FrameError::Wire(WireError::BadTag(0xEE)))
        ));
    }
}
