//! Two peers reconciling over a real TCP connection on localhost —
//! now a thin invocation of `icd-node`'s connection drivers, the very
//! code path the peer daemon runs: a [`Hello`] preamble carrying the
//! link seed, then one §3 session pumped by the blocking drivers, with
//! every decoded symbol landing in a [`SharedWorkingSet`]. Every number
//! printed is a framed wire length (4-byte prefix included), and the
//! hello is excluded from the counters on both ends, so receiver and
//! sender totals must agree exactly.
//!
//! Run with: `cargo run --release --example tcp_reconcile`

use icd_core::{SessionConfig, WorkingSet};
use icd_fountain::{EncodedSymbol, Encoder};
use icd_node::{fetch_session, serve_session, Hello, SessionEpoch, SharedWorkingSet};
use icd_overlay::session_machine_seeds;
use std::net::{TcpListener, TcpStream};

fn main() {
    let content: Vec<u8> = (0..128 * 1024).map(|i| (i * 13 % 251) as u8).collect();
    let encoder = Encoder::for_content(&content, 1400, 3);
    let l = encoder.spec().num_blocks();
    let universe: Vec<EncodedSymbol> = encoder.stream(5).take(l * 14 / 10).collect();
    let cut = universe.len() * 6 / 10;
    let receiver_symbols: Vec<EncodedSymbol> = universe[..cut].to_vec();
    let sender_symbols: Vec<EncodedSymbol> = universe[universe.len() - cut..].to_vec();

    // One link seed in the hello; both machine seeds derive from it,
    // exactly as the daemon and the simulator do.
    let link_seed = 0x1CD0_0017;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    // Serving peer on its own thread, like a remote daemon: read the
    // hello, derive the sender seed, serve one session.
    let sender_thread = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let hello = Hello::read_from(&mut stream).expect("hello");
        let (_, sender_seed) = session_machine_seeds(hello.seed);
        let working = WorkingSet::from_symbols(sender_symbols);
        serve_session(&mut stream, working, sender_seed).expect("serve session")
    });

    // Fetching peer: hello first, then the session; decoded symbols
    // land in the shared set the way a daemon's many sessions share one.
    let mut stream = TcpStream::connect(addr).expect("connect");
    Hello {
        dialer: 1,
        seed: link_seed,
        epoch: SessionEpoch::Live,
    }
    .write_to(&mut stream)
    .expect("hello");
    let snapshot = WorkingSet::from_symbols(receiver_symbols);
    let before = snapshot.len();
    let shared = SharedWorkingSet::new(snapshot.clone(), universe.len());
    let (receiver_seed, _) = session_machine_seeds(link_seed);
    let config = SessionConfig::new()
        .with_request((l / 2) as u64)
        .with_seed(receiver_seed);
    let outcome = fetch_session(&mut stream, snapshot, config, &shared).expect("fetch session");
    drop(stream);
    let sender_stats = sender_thread.join().expect("sender thread");

    let stats = outcome.stats;
    let after = shared.distinct();
    println!("TCP reconciliation on {addr}:");
    println!("  symbols before  : {before}");
    println!("  symbols after   : {after} (+{})", outcome.gained);
    println!(
        "  control traffic : {} bytes in {} frames (sketches, summary, request, end)",
        stats.control_bytes, stats.frames
    );
    println!("  data traffic    : {} bytes", stats.data_bytes);
    println!("  total wire      : {} bytes", stats.total());
    assert!(!outcome.rejected, "sketches clearly differ; no rejection");
    assert!(outcome.gained > 0, "transfer should have moved symbols");
    assert_eq!(
        after,
        before + outcome.gained as usize,
        "shared set gained exactly the fresh symbols"
    );
    // Both ends counted the same frames; their totals must agree exactly.
    assert_eq!(
        stats.total(),
        sender_stats.total(),
        "receiver and sender wire counters diverged"
    );
    assert!(
        stats.control_bytes < 64 * 1024,
        "control plane must stay a handful of KB"
    );
}
