//! Property-based tests on the wire format: total decoding (no panics on
//! arbitrary bytes), lossless round-trips for arbitrary messages, and a
//! malformed-frame corpus for the framing layer — oversized length
//! prefixes, mid-frame truncation, unknown tags — all of which must
//! surface as typed errors, never panics or unbounded allocation. The
//! buffered `FrameReader` must round-trip any frame sequence however the
//! stream chunks it and keep `read_frame`'s error taxonomy exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Read;

use icd_wire::framing::{read_frame, write_frame, write_frame_buf, FrameError, FrameLimit};
use icd_wire::{FrameReader, Message, WireError};
use proptest::prelude::*;

/// The system allocator, counting the bytes each thread requests, so a
/// test can assert that a read allocated nothing.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes));
}

// SAFETY: every call forwards unchanged to `System`; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f`, returning its result and the bytes this thread allocated.
fn allocated_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// Serves `data` in reads of the given sizes, cycled — a socket hands a
/// reader whatever has arrived, from one byte to everything.
struct Chunked<'a> {
    data: &'a [u8],
    sizes: &'a [usize],
    calls: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = self.sizes[self.calls % self.sizes.len()];
        self.calls += 1;
        let n = buf.len().min(size).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// One message per `(kind, value, payload length)` triple: requests,
/// symbols (up to past the reader's 16 KiB buffer) and ends.
fn message((kind, value, len): (u8, u64, usize)) -> Message {
    match kind {
        0 => Message::SymbolRequest { count: value },
        1 => Message::EncodedSymbol {
            id: value,
            payload: bytes::Bytes::from(vec![value as u8; len]),
        },
        _ => Message::End { sent: value },
    }
}

/// Frames `msgs` back to back; returns the stream and each frame.
fn framed_stream(msgs: &[Message]) -> (Vec<u8>, Vec<Vec<u8>>) {
    let (mut stream, mut scratch) = (Vec::new(), Vec::new());
    let frames = msgs
        .iter()
        .map(|m| {
            let mut frame = Vec::new();
            write_frame_buf(&mut frame, m, &mut scratch).expect("frame");
            stream.extend_from_slice(&frame);
            frame
        })
        .collect();
    (stream, frames)
}

/// Chunk sizes spread log-uniformly from one byte to 128 KiB.
fn chunk_sizes() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(
        (0u32..18, any::<u64>()).prop_map(|(bits, raw)| 1 + (raw % (1u64 << bits)) as usize),
        1..8,
    )
}

proptest! {
    #[test]
    fn decode_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        // Must return Ok or Err, never panic or loop.
        let _ = Message::decode(&bytes);
    }

    #[test]
    fn symbol_request_roundtrip(count in any::<u64>()) {
        let msg = Message::SymbolRequest { count };
        prop_assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn encoded_symbol_roundtrip(id in any::<u64>(), payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let msg = Message::EncodedSymbol { id, payload: bytes::Bytes::from(payload) };
        // decode copies; decode_from views — both must round-trip.
        prop_assert_eq!(Message::decode_from(&bytes::Bytes::from(msg.encode())).unwrap(), msg.clone());
        prop_assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn recoded_symbol_roundtrip(
        components in proptest::collection::vec(any::<u64>(), 1..64),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let msg = Message::RecodedSymbol { components, payload: bytes::Bytes::from(payload) };
        prop_assert_eq!(Message::decode_from(&bytes::Bytes::from(msg.encode())).unwrap(), msg.clone());
        prop_assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn truncation_always_detected(
        components in proptest::collection::vec(any::<u64>(), 1..16),
        cut_fraction in 0.0f64..1.0,
    ) {
        let msg = Message::RecodedSymbol { components, payload: bytes::Bytes::from(vec![7; 32]) };
        let bytes = msg.encode();
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        if cut < bytes.len() {
            prop_assert!(Message::decode(&bytes[..cut]).is_err());
            prop_assert!(Message::decode_from(&bytes::Bytes::copy_from_slice(&bytes[..cut])).is_err());
        }
    }

    #[test]
    fn trailing_garbage_always_detected(extra in 1usize..16) {
        let mut bytes = Message::SymbolRequest { count: 7 }.encode();
        bytes.extend(std::iter::repeat_n(0u8, extra));
        prop_assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::Invalid(_)) | Err(WireError::Truncated)
        ));
    }

    #[test]
    fn framing_is_faithful_to_message_decode(body in proptest::collection::vec(any::<u8>(), 0..512)) {
        // A well-prefixed frame around an arbitrary body must land in
        // exactly the same place as decoding the body directly: same
        // message on success, a typed `Wire` error on failure — the
        // framing layer adds no acceptance and no panics of its own.
        let mut framed = (body.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&body);
        let mut cursor = std::io::Cursor::new(framed);
        match (read_frame(&mut cursor, FrameLimit::default()), Message::decode(&body)) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(FrameError::Wire(_)), Err(_)) => {}
            (framed, direct) => panic!("framing diverged: {framed:?} vs {direct:?}"),
        }
    }

    #[test]
    fn framed_stream_cut_anywhere_is_typed(
        counts in proptest::collection::vec(any::<u64>(), 1..4),
        cut_fraction in 0.0f64..1.0,
    ) {
        // Frame a few messages, cut the stream at an arbitrary byte,
        // and read until it ends: every outcome must be a typed frame
        // error — clean `Closed` exactly on a frame boundary, `Truncated`
        // with consistent counters mid-frame — and never a panic.
        let mut buf = Vec::new();
        let mut boundaries = vec![0usize];
        for &count in &counts {
            write_frame(&mut buf, &Message::SymbolRequest { count }).expect("write");
            boundaries.push(buf.len());
        }
        let cut = ((buf.len() as f64) * cut_fraction) as usize;
        let mut cursor = std::io::Cursor::new(&buf[..cut]);
        let mut decoded = 0usize;
        let end = loop {
            match read_frame(&mut cursor, FrameLimit::default()) {
                Ok(msg) => {
                    prop_assert_eq!(msg, Message::SymbolRequest { count: counts[decoded] });
                    decoded += 1;
                }
                Err(e) => break e,
            }
        };
        match end {
            FrameError::Closed => prop_assert_eq!(cut, boundaries[decoded]),
            FrameError::Truncated { needed, got } => {
                prop_assert!(needed > 0, "truncation must still be missing bytes");
                // The error's counters reconstruct the cut position.
                prop_assert_eq!(boundaries[decoded] + got, cut);
            }
            other => panic!("expected Closed/Truncated, got {other:?}"),
        }
        prop_assert!(decoded <= counts.len());
    }

    #[test]
    fn frame_reader_roundtrips_any_chunking(
        specs in proptest::collection::vec((0u8..3, any::<u64>(), 0usize..24_000), 1..6),
        sizes in chunk_sizes(),
    ) {
        let msgs: Vec<Message> = specs.into_iter().map(message).collect();
        let (stream, frames) = framed_stream(&msgs);
        let mut chunked = Chunked { data: &stream, sizes: &sizes, calls: 0 };
        let mut reader = FrameReader::new(FrameLimit::default());
        for (frame, msg) in frames.iter().zip(&msgs) {
            let got = reader.next_frame(&mut chunked).expect("frame");
            prop_assert_eq!(&got[..], &frame[..]);
            prop_assert_eq!(&Message::decode_from(&got.slice(4..)).expect("decode"), msg);
        }
        prop_assert!(matches!(reader.next_frame(&mut chunked), Err(FrameError::Closed)));
    }

    #[test]
    fn frame_reader_types_every_truncation_offset(
        specs in proptest::collection::vec((0u8..3, any::<u64>(), 0usize..48), 1..5),
        sizes in chunk_sizes(),
    ) {
        let msgs: Vec<Message> = specs.into_iter().map(message).collect();
        let (stream, frames) = framed_stream(&msgs);
        for cut in 0..=stream.len() {
            let mut chunked = Chunked { data: &stream[..cut], sizes: &sizes, calls: 0 };
            let mut reader = FrameReader::new(FrameLimit::default());
            let (mut start, mut whole) = (0, 0);
            let end = loop {
                match reader.next_frame(&mut chunked) {
                    Ok(frame) => {
                        prop_assert_eq!(&frame[..], &frames[whole][..]);
                        start += frame.len();
                        whole += 1;
                    }
                    Err(e) => break e,
                }
            };
            // Both readers share one taxonomy: `read_frame` ends the cut
            // stream the same way.
            let mut unbuffered = &stream[..cut];
            let direct = loop {
                if let Err(e) = read_frame(&mut unbuffered, FrameLimit::default()) {
                    break e;
                }
            };
            let got = cut - start;
            match (end, direct) {
                (FrameError::Closed, FrameError::Closed) => prop_assert_eq!(got, 0),
                (
                    FrameError::Truncated { needed, got: g },
                    FrameError::Truncated { needed: n2, got: g2 },
                ) => {
                    // Counted from the frame's first prefix byte: the
                    // prefix while it is incomplete, else the frame.
                    let want = if got < 4 { 4 } else { frames[whole].len() };
                    prop_assert_eq!((needed, g), (want - got, got));
                    prop_assert_eq!((n2, g2), (needed, g));
                }
                (end, direct) => panic!("cut {cut}: {end:?} / {direct:?}"),
            }
        }
    }

    #[test]
    fn oversized_prefix_is_too_large_before_any_allocation(
        limit in 0u32..1 << 20,
        excess in 1u32..u32::MAX - (1 << 20),
        sizes in chunk_sizes(),
    ) {
        let claimed = limit + excess;
        let mut stream = claimed.to_le_bytes().to_vec();
        stream.extend_from_slice(&[0xAB; 64]);
        let limit = FrameLimit { max_bytes: limit };
        let mut reader = FrameReader::new(limit);
        let mut chunked = Chunked { data: &stream, sizes: &sizes, calls: 0 };
        let (buffered, allocated) = allocated_during(|| reader.next_frame(&mut chunked));
        prop_assert_eq!(allocated, 0);
        let (direct, allocated) = allocated_during(|| read_frame(&mut &stream[..], limit));
        prop_assert_eq!(allocated, 0);
        for result in [buffered.map(|_| ()), direct.map(|_| ())] {
            prop_assert!(matches!(
                result,
                Err(FrameError::TooLarge { claimed: c, limit: l }) if c == claimed && l == limit.max_bytes
            ));
        }
    }
}

/// Hand-written malformed frames, each of which must be rejected with
/// the *specific* typed error a driver can act on — the corpus the
/// nightly fuzz lane grew out of.
#[test]
fn malformed_frame_corpus_is_rejected_with_typed_errors() {
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut buf = (body.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(body);
        buf
    }
    let valid = {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Message::SymbolRequest { count: 9 }).expect("write");
        buf
    };

    // (name, stream bytes, check on the resulting error)
    type ErrorCheck = Box<dyn Fn(&FrameError) -> bool>;
    let corpus: Vec<(&str, Vec<u8>, ErrorCheck)> = vec![
        (
            "empty stream is a clean close",
            Vec::new(),
            Box::new(|e| matches!(e, FrameError::Closed)),
        ),
        (
            "truncated length prefix",
            vec![0x01, 0x00],
            Box::new(|e| matches!(e, FrameError::Truncated { needed: 2, got: 2 })),
        ),
        (
            "oversized length prefix is rejected before allocating",
            {
                let mut buf = u32::MAX.to_le_bytes().to_vec();
                buf.extend_from_slice(&[0u8; 8]);
                buf
            },
            Box::new(|e| {
                matches!(
                    e,
                    FrameError::TooLarge {
                        claimed: u32::MAX,
                        ..
                    }
                )
            }),
        ),
        (
            "body cut mid-frame",
            valid[..valid.len() - 3].to_vec(),
            Box::new(|e| matches!(e, FrameError::Truncated { needed: 3, .. })),
        ),
        (
            "unknown message tag",
            framed(&[0xEE]),
            Box::new(|e| matches!(e, FrameError::Wire(_))),
        ),
        (
            "unknown summary id inside a summary frame",
            framed(&[0x07, 0xEE, 0xEE, 0xEE]),
            Box::new(|e| matches!(e, FrameError::Wire(_))),
        ),
        (
            "declared length longer than the message",
            {
                let mut body = Message::SymbolRequest { count: 9 }.encode();
                body.extend_from_slice(&[0u8; 3]);
                framed(&body)
            },
            Box::new(|e| matches!(e, FrameError::Wire(_))),
        ),
    ];

    for (name, bytes, check) in corpus {
        let mut cursor = std::io::Cursor::new(bytes);
        match read_frame(&mut cursor, FrameLimit::default()) {
            Ok(msg) => panic!("{name}: accepted as {msg:?}"),
            Err(e) => assert!(check(&e), "{name}: wrong error {e:?}"),
        }
    }
}

#[test]
fn framing_roundtrip_over_in_memory_stream() {
    use icd_wire::framing::{read_frame, write_frame, FrameLimit};
    let msgs = vec![
        Message::SymbolRequest { count: 1 },
        Message::EncodedSymbol {
            id: 2,
            payload: bytes::Bytes::from(vec![3; 100]),
        },
        Message::End { sent: 1 },
    ];
    let mut buf = Vec::new();
    for m in &msgs {
        write_frame(&mut buf, m).expect("write");
    }
    let mut cursor = std::io::Cursor::new(buf);
    for m in &msgs {
        assert_eq!(&read_frame(&mut cursor, FrameLimit::default()).expect("read"), m);
    }
}
